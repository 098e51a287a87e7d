#include "channel/channel.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

namespace {

class UniformDelay final : public DelayPolicy {
 public:
  UniformDelay() : DelayPolicy("uniform") {}
  Duration sample(Duration d1, Duration d2, Rng& rng) override {
    return rng.uniform(d1, d2);
  }
};

class MinDelay final : public DelayPolicy {
 public:
  MinDelay() : DelayPolicy("min") {}
  Duration sample(Duration d1, Duration /*d2*/, Rng& /*rng*/) override {
    return d1;
  }
};

class MaxDelay final : public DelayPolicy {
 public:
  MaxDelay() : DelayPolicy("max") {}
  Duration sample(Duration /*d1*/, Duration d2, Rng& /*rng*/) override {
    return d2;
  }
};

class BimodalDelay final : public DelayPolicy {
 public:
  explicit BimodalDelay(double p_fast)
      : DelayPolicy("bimodal"), p_fast_(p_fast) {}
  Duration sample(Duration d1, Duration d2, Rng& rng) override {
    return rng.flip(p_fast_) ? d1 : d2;
  }

 private:
  double p_fast_;
};

class FixedDelay final : public DelayPolicy {
 public:
  explicit FixedDelay(Duration d) : DelayPolicy("fixed"), d_(d) {}
  Duration sample(Duration d1, Duration d2, Rng& /*rng*/) override {
    PSC_CHECK(d1 <= d_ && d_ <= d2,
              "fixed delay " << d_ << " outside [" << d1 << "," << d2 << "]");
    return d_;
  }

 private:
  Duration d_;
};

}  // namespace

std::unique_ptr<DelayPolicy> DelayPolicy::uniform() {
  return std::make_unique<UniformDelay>();
}
std::unique_ptr<DelayPolicy> DelayPolicy::always_min() {
  return std::make_unique<MinDelay>();
}
std::unique_ptr<DelayPolicy> DelayPolicy::always_max() {
  return std::make_unique<MaxDelay>();
}
std::unique_ptr<DelayPolicy> DelayPolicy::bimodal(double p_fast) {
  return std::make_unique<BimodalDelay>(p_fast);
}
std::unique_ptr<DelayPolicy> DelayPolicy::fixed(Duration d) {
  return std::make_unique<FixedDelay>(d);
}

Channel::Channel(int i, int j, Duration d1, Duration d2,
                 std::unique_ptr<DelayPolicy> policy, Rng rng,
                 std::string send_name, std::string recv_name)
    : Machine("E_" + std::to_string(i) + "," + std::to_string(j)),
      i_(i),
      j_(j),
      d1_(d1),
      d2_(d2),
      policy_(std::move(policy)),
      rng_(rng),
      send_name_(std::move(send_name)),
      recv_name_(std::move(recv_name)) {
  PSC_CHECK(0 <= d1_ && d1_ <= d2_, "bad delay bounds [" << d1_ << "," << d2_
                                                         << "]");
  PSC_CHECK(policy_ != nullptr, "channel needs a delay policy");
}

void Channel::declare_signature(SignatureDecl& decl) const {
  decl.input(send_name_, i_, j_);
  decl.output(recv_name_, j_, i_);
}

void Channel::apply_input(const Action& a, Time t) {
  PSC_CHECK(a.msg.has_value(), "send without message: " << to_string(a));
  const Duration delay = policy_->sample(d1_, d2_, rng_);
  PSC_CHECK(d1_ <= delay && delay <= d2_,
            "policy " << policy_->name() << " returned delay " << delay
                      << " outside [" << d1_ << "," << d2_ << "]");
  InFlight f;
  f.msg = *a.msg;
  f.sent_at = t;
  f.deliver_at = time_add(t, delay);
  f.seq = next_seq_++;
  buffer_.push_back(std::move(f));
  ++stats_.sent;
}

std::vector<Action> Channel::enabled(Time t) const {
  std::vector<Action> out;
  for (const auto& f : buffer_) {
    if (f.deliver_at <= t) {
      // Figure 1 precondition: t in [sent+d1, sent+d2]; deliver_at was
      // sampled inside that window and upper_bound() stops time at it.
      out.push_back(make_recv(j_, i_, f.msg, recv_name_.c_str()));
    }
  }
  return out;
}

void Channel::enabled_into(Time t, std::vector<Action>& out) const {
  // Same sequence as enabled(), built into recycled slots: in the steady
  // state a channel's due set has a stable size, so the RECVMSG name, the
  // args vector and the Message payload buffers are all reused in place and
  // the scheduler's re-poll performs no allocation.
  std::size_t k = 0;
  for (const auto& f : buffer_) {
    if (f.deliver_at <= t) {
      if (k == out.size()) out.emplace_back();
      Action& a = out[k++];
      a.name.assign(recv_name_);
      a.node = j_;
      a.peer = i_;
      a.args.clear();
      if (a.msg.has_value()) {
        *a.msg = f.msg;  // Message copy-assign reuses kind/fields capacity
      } else {
        a.msg = f.msg;
      }
    }
  }
  out.resize(k);
}

void Channel::apply_local(const Action& a, Time t) {
  PSC_CHECK(a.msg.has_value(), "recv without message");
  auto it = std::find_if(buffer_.begin(), buffer_.end(), [&](const InFlight& f) {
    return f.msg.uid == a.msg->uid;
  });
  PSC_CHECK(it != buffer_.end(),
            "delivering unknown/duplicate message " << to_string(a));
  PSC_CHECK(t >= it->sent_at + d1_ && t <= time_add(it->sent_at, d2_),
            "delivery at " << format_time(t) << " outside window of message "
                           << to_string(it->msg));
  if (it->seq < delivered_hwm_) ++stats_.reordered;
  delivered_hwm_ = std::max(delivered_hwm_, it->seq);
  buffer_.erase(it);
  ++stats_.delivered;
}

Time Channel::upper_bound(Time /*t*/) const {
  Time ub = kTimeMax;
  for (const auto& f : buffer_) ub = std::min(ub, f.deliver_at);
  return ub;
}

Time Channel::next_enabled(Time t) const {
  Time ne = kTimeMax;
  for (const auto& f : buffer_) {
    if (f.deliver_at > t) ne = std::min(ne, f.deliver_at);
  }
  return ne;
}

}  // namespace psc
