#include "transform/buffers.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

// ---------------------------------------------------------------------------
// SendBuffer
// ---------------------------------------------------------------------------

SendBuffer::SendBuffer(int i, int j)
    : Machine("S_" + std::to_string(i) + "," + std::to_string(j)),
      i_(i),
      j_(j) {}

void SendBuffer::declare_signature(SignatureDecl& decl) const {
  decl.input("SENDMSG", i_, j_);
  decl.output("ESENDMSG", i_, j_);
}

void SendBuffer::apply_input(const Action& a, Time clock) {
  PSC_CHECK(a.msg.has_value(), "SENDMSG without message");
  q_.push_back({*a.msg, clock});
}

std::vector<Action> SendBuffer::enabled(Time clock) const {
  std::vector<Action> out;
  if (!q_.empty() && q_.front().tag == clock) {
    Message tagged = q_.front().msg;
    tagged.clock_tag = q_.front().tag;
    out.push_back(make_send(i_, j_, std::move(tagged), "ESENDMSG"));
  }
  return out;
}

void SendBuffer::apply_local(const Action& a, Time clock) {
  PSC_CHECK(!q_.empty() && a.msg && a.msg->uid == q_.front().msg.uid,
            "ESENDMSG out of order");
  PSC_CHECK(q_.front().tag == clock, "ESENDMSG after clock moved");
  q_.pop_front();
}

Time SendBuffer::upper_bound(Time /*clock*/) const {
  // nu-precondition: no queued tag may fall behind the clock. Tags equal
  // the enqueue clock, so time may not pass at all while nonempty.
  return q_.empty() ? kTimeMax : q_.front().tag;
}

// ---------------------------------------------------------------------------
// ReceiveBuffer
// ---------------------------------------------------------------------------

ReceiveBuffer::ReceiveBuffer(int j, int i)
    : Machine("R_" + std::to_string(j) + "," + std::to_string(i)),
      j_(j),
      i_(i) {}

void ReceiveBuffer::declare_signature(SignatureDecl& decl) const {
  decl.input("ERECVMSG", i_, j_);
  decl.output("RECVMSG", i_, j_);
}

void ReceiveBuffer::apply_input(const Action& a, Time clock) {
  PSC_CHECK(a.msg.has_value(), "ERECVMSG without message");
  PSC_CHECK(a.msg->clock_tag != kNoClockTag,
            "clock-model message without clock tag: " << to_string(*a.msg));
  ++stats_.received;
  if (a.msg->clock_tag > clock) ++stats_.buffered;
  q_.push_back({*a.msg, clock});
}

std::size_t ReceiveBuffer::min_index() const {
  std::size_t best = 0;
  for (std::size_t k = 1; k < q_.size(); ++k) {
    if (q_[k].msg.clock_tag < q_[best].msg.clock_tag) best = k;
  }
  return best;
}

std::vector<Action> ReceiveBuffer::enabled(Time clock) const {
  std::vector<Action> out;
  if (!q_.empty()) {
    const auto& h = q_[min_index()];
    if (h.msg.clock_tag <= clock) {
      Message stripped = h.msg;  // deliver m, not (m, c)
      stripped.clock_tag = kNoClockTag;
      out.push_back(make_recv(i_, j_, std::move(stripped), "RECVMSG"));
    }
  }
  return out;
}

void ReceiveBuffer::apply_local(const Action& a, Time clock) {
  PSC_CHECK(!q_.empty(), "RECVMSG from empty buffer");
  const std::size_t k = min_index();
  PSC_CHECK(a.msg && a.msg->uid == q_[k].msg.uid, "RECVMSG out of tag order");
  PSC_CHECK(q_[k].msg.clock_tag <= clock,
            "delivered before clock reached the send tag");
  const Duration held = clock - q_[k].arrived_clock;
  stats_.max_hold = std::max(stats_.max_hold, held);
  stats_.total_hold += held;
  if (release_hook_) release_hook_(q_[k].msg, q_[k].arrived_clock, clock);
  q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(k));
}

Time ReceiveBuffer::upper_bound(Time clock) const {
  if (q_.empty()) return kTimeMax;
  const Time tag = q_[min_index()].msg.clock_tag;
  // The clock may advance up to the smallest undelivered tag, and not at all
  // if that tag has already been reached.
  return tag > clock ? tag : clock;
}

Time ReceiveBuffer::next_enabled(Time clock) const {
  if (q_.empty()) return kTimeMax;
  const Time tag = q_[min_index()].msg.clock_tag;
  return tag > clock ? tag : kTimeMax;
}

}  // namespace psc
