#include "rw/sliced.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

SlicedRw::SlicedRw(const SlicedParams& params)
    : Machine("Sliced_" + std::to_string(params.node)),
      params_(params),
      value_(params.v0) {
  PSC_CHECK(params_.u > 0, "slice length u must be positive");
  PSC_CHECK(params_.d2 >= 0, "d2 must be nonnegative");
}

Time SlicedRw::next_boundary_after(Time t) const {
  return (t / params_.u + 1) * params_.u;
}

void SlicedRw::declare_signature(SignatureDecl& decl) const {
  const int i = params_.node;
  decl.input("READ", i);
  decl.input("WRITE", i);
  decl.input("RECVMSG", i);
  decl.output("RETURN", i);
  decl.output("ACK", i);
  decl.output("SENDMSG", i);
  decl.internal("UPDATE", i);
}

void SlicedRw::apply_input(const Action& a, Time clock) {
  if (a.name == names::kRead) {
    PSC_CHECK(!read_.active, "alternation violated");
    read_.active = true;
    // First boundary >= T, plus 3u: worst case 4u, best case 3u.
    const Time at_or_after = ((clock + params_.u - 1) / params_.u) * params_.u;
    read_.ret_at = at_or_after + 3 * params_.u;
  } else if (a.name == names::kWrite) {
    PSC_CHECK(write_.status == WriteStatus::kInactive, "alternation violated");
    write_.status = WriteStatus::kSend;
    write_.value = as_int(a.args.at(0));
    write_.boundary = next_boundary_after(clock + params_.d2 + params_.u);
    write_.ack_at = write_.boundary + params_.u;
    write_.send_procs.clear();
    for (int j = 0; j < params_.num_nodes; ++j) {
      if (j != params_.node) write_.send_procs.push_back(j);
    }
    // A lone node has no peer to send to: nothing would ever leave kSend.
    if (write_.send_procs.empty()) write_.status = WriteStatus::kWaitAck;
    // The writer applies its own update locally (no self-message needed).
    pending_.push_back({params_.node, write_.value, write_.boundary});
  } else if (a.name == names::kRecvMsg) {
    PSC_CHECK(a.msg && a.msg->kind == "SUPDATE", "unexpected message");
    const std::int64_t v = as_int(a.msg->fields.at(0));
    const Time boundary = as_int(a.msg->fields.at(1));
    // The reconstruction's premise: skew u and boundary slack guarantee
    // arrival before the local clock reaches the boundary.
    PSC_CHECK(clock <= boundary,
              "update arrived after its boundary — u/d2 parameters violate "
              "the algorithm's premise");
    pending_.push_back({a.peer, v, boundary});
  } else {
    PSC_CHECK(false, "unexpected input " << to_string(a));
  }
}

Time SlicedRw::due_boundary(Time clock) const {
  Time due = kTimeMax;
  for (const auto& p : pending_) {
    if (p.boundary <= clock) due = std::min(due, p.boundary);
  }
  return due;
}

void SlicedRw::enabled_into(Time clock, Candidates& out) const {
  out.clear();
  const int i = params_.node;
  const bool read_due = read_.active && read_.ret_at <= clock;
  const Time due = due_boundary(clock);
  // UPDATE: a boundary has been reached — but a read serialized at R sees
  // only updates with boundary < R, so boundary >= R updates hold until the
  // read returns.
  if (due != kTimeMax && !(read_due && due >= read_.ret_at)) {
    out.push_back(make_action("UPDATE", i));
  }
  // RETURN: read due and every update with boundary < R applied.
  if (read_due && (due == kTimeMax || due >= read_.ret_at)) {
    out.push_back(make_action("RETURN", i, {Value{value_}}));
  }
  // ACK at clock B + u.
  if (write_.status == WriteStatus::kWaitAck && write_.ack_at <= clock) {
    out.push_back(make_action("ACK", i));
  }
  // Broadcast phase: send immediately (urgently) on WRITE.
  if (write_.status == WriteStatus::kSend) {
    for (int j : write_.send_procs) {
      Message m = make_message(
          "SUPDATE", {Value{write_.value}, Value{write_.boundary}});
      out.push_back(make_send(i, j, std::move(m)));
    }
  }
}

void SlicedRw::apply_local(const Action& a, Time clock) {
  if (a.name == names::kUpdate) {
    // Apply the earliest due boundary; ties by ascending proc so the
    // largest proc id wins — identical at every node.
    auto it = pending_.end();
    for (auto k = pending_.begin(); k != pending_.end(); ++k) {
      if (k->boundary > clock) continue;
      if (it == pending_.end() || k->boundary < it->boundary ||
          (k->boundary == it->boundary && k->proc < it->proc)) {
        it = k;
      }
    }
    PSC_CHECK(it != pending_.end(), "UPDATE with nothing due");
    value_ = it->value;
    pending_.erase(it);
  } else if (a.name == names::kReturn) {
    PSC_CHECK(read_.active && read_.ret_at <= clock, "RETURN not due");
    read_.active = false;
  } else if (a.name == names::kAck) {
    PSC_CHECK(write_.status == WriteStatus::kWaitAck &&
                  write_.ack_at <= clock,
              "ACK not due");
    write_.status = WriteStatus::kInactive;
  } else if (a.name == names::kSendMsg) {
    PSC_CHECK(write_.status == WriteStatus::kSend, "SENDMSG out of phase");
    auto it = std::find(write_.send_procs.begin(), write_.send_procs.end(),
                        a.peer);
    PSC_CHECK(it != write_.send_procs.end(), "duplicate SENDMSG");
    write_.send_procs.erase(it);
    if (write_.send_procs.empty()) write_.status = WriteStatus::kWaitAck;
  } else {
    PSC_CHECK(false, "unexpected local action " << to_string(a));
  }
}

Time SlicedRw::upper_bound(Time clock) const {
  Time m = kTimeMax;
  if (read_.active) m = std::min(m, read_.ret_at);
  if (write_.status == WriteStatus::kSend) m = std::min(m, clock);
  if (write_.status == WriteStatus::kWaitAck) m = std::min(m, write_.ack_at);
  for (const auto& p : pending_) m = std::min(m, p.boundary);
  return m <= clock ? clock : m;
}

Time SlicedRw::next_enabled(Time clock) const {
  Time ne = kTimeMax;
  auto consider = [&](Time t) {
    if (t > clock) ne = std::min(ne, t);
  };
  if (read_.active) consider(read_.ret_at);
  if (write_.status == WriteStatus::kWaitAck) consider(write_.ack_at);
  for (const auto& p : pending_) consider(p.boundary);
  return ne;
}

std::vector<std::unique_ptr<Machine>> make_sliced_algorithms(
    int num_nodes, const SlicedParams& base) {
  std::vector<std::unique_ptr<Machine>> out;
  for (int i = 0; i < num_nodes; ++i) {
    SlicedParams p = base;
    p.node = i;
    p.num_nodes = num_nodes;
    out.push_back(std::make_unique<SlicedRw>(p));
  }
  return out;
}

}  // namespace psc
