#include "rw/algorithm.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

RwAlgorithm::RwAlgorithm(const RwParams& params)
    : Machine("S_" + std::to_string(params.node)),
      params_(params),
      value_(params.v0) {
  PSC_CHECK(params_.delta >= 1, "delta must be at least one time quantum");
  PSC_CHECK(params_.c >= 0, "c must be nonnegative");
  // Section 6.1: c ranges over [0, d2' - 2eps] — the upper end keeps the
  // write long enough (>= 2eps) for its superlinearization point to exist.
  PSC_CHECK(params_.d2_prime >= params_.c + params_.two_eps,
            "c=" << params_.c << " exceeds d2' - 2eps = "
                 << params_.d2_prime - params_.two_eps);
  PSC_CHECK(params_.two_eps >= 0, "two_eps must be nonnegative");
}

void RwAlgorithm::declare_signature(SignatureDecl& decl) const {
  decl.input("READ", params_.node);
  decl.input("WRITE", params_.node);
  // Figure 3's RECVMSG_i(j, m) ranges over j in procs.
  for (int j = 0; j < params_.num_nodes; ++j) {
    decl.input("RECVMSG", params_.node, j);
  }
  decl.output("RETURN", params_.node);
  decl.output("ACK", params_.node);
  decl.output("SENDMSG", params_.node);
  decl.internal("UPDATE", params_.node);
}

void RwAlgorithm::apply_input(const Action& a, Time now) {
  if (a.name == "READ") {
    PSC_CHECK(!read_.active, "alternation violated: READ while READ pending");
    read_.active = true;
    read_.time = now + params_.c + params_.two_eps + params_.delta;
  } else if (a.name == "WRITE") {
    PSC_CHECK(write_.status == WriteStatus::kInactive,
              "alternation violated: WRITE while WRITE pending");
    write_.status = WriteStatus::kSend;
    write_.send_value = as_int(a.args.at(0));
    write_.send_procs.clear();
    for (int j = 0; j < params_.num_nodes; ++j) write_.send_procs.insert(j);
    write_.send_time = now;
    write_.ack_time = now + params_.d2_prime - params_.c;
  } else if (a.name == "RECVMSG") {
    PSC_CHECK(a.msg && a.msg->kind == "UPDATE",
              "unexpected message " << to_string(a));
    const int j = a.peer;  // sender
    const std::int64_t v = as_int(a.msg->fields.at(0));
    const Time t = as_int(a.msg->fields.at(1));
    const Time when = t + params_.delta;
    // Figure 3: at equal update times keep the record with the largest
    // sender index.
    auto it = std::find_if(
        updates_.begin(), updates_.end(),
        [when](const UpdateRecord& r) { return r.update_time == when; });
    if (it == updates_.end()) {
      updates_.push_back({j, v, when});
    } else if (it->proc < j) {
      *it = {j, v, when};
    }
  } else {
    PSC_CHECK(false, "unexpected input " << to_string(a));
  }
}

bool RwAlgorithm::update_due(Time now) const {
  return std::any_of(updates_.begin(), updates_.end(),
                     [now](const UpdateRecord& r) {
                       return r.update_time <= now;
                     });
}

std::vector<Action> RwAlgorithm::enabled(Time now) const {
  std::vector<Action> out;
  const int i = params_.node;
  // Deadlines use >= rather than Figure 3's exact equality: the executor
  // hits deadlines exactly in the timed model, but an integer-grid clock
  // trajectory with rate > 1 may skip an exact value; firing at the first
  // instant at or after the deadline is the standard executable
  // discretization (identical in the continuous theory).
  //
  // UPDATE_i: an update record is due.
  if (update_due(now)) {
    out.push_back(make_action("UPDATE", i));
  }
  // RETURN_i(v): read due, and no update due at or before this time (they
  // must be applied first — the "∄ r.update-time = now" precondition).
  if (read_.active && read_.time <= now && !update_due(now)) {
    out.push_back(make_action("RETURN", i, {Value{value_}}));
  }
  // ACK_i.
  if (write_.status == WriteStatus::kAck && write_.ack_time <= now) {
    out.push_back(make_action("ACK", i));
  }
  // SENDMSG_i(j, UPDATE(v, t)) with t = send_time + d2'.
  if (write_.status == WriteStatus::kSend && write_.send_time <= now) {
    for (int j : write_.send_procs) {
      Message m = make_message(
          "UPDATE",
          {Value{write_.send_value}, Value{write_.send_time + params_.d2_prime}});
      out.push_back(make_send(i, j, std::move(m)));
    }
  }
  return out;
}

void RwAlgorithm::apply_local(const Action& a, Time now) {
  const int i = params_.node;
  if (a.name == "UPDATE") {
    // Apply the *earliest* due record first: if the clock jumped past
    // several update times at once they must take effect in time order.
    auto it = updates_.end();
    for (auto k = updates_.begin(); k != updates_.end(); ++k) {
      if (k->update_time <= now &&
          (it == updates_.end() || k->update_time < it->update_time)) {
        it = k;
      }
    }
    PSC_CHECK(it != updates_.end(), "UPDATE with nothing due");
    value_ = it->value;
    updates_.erase(it);
  } else if (a.name == "RETURN") {
    PSC_CHECK(read_.active && read_.time <= now, "RETURN not due");
    PSC_CHECK(!update_due(now), "RETURN before same-time UPDATE");
    PSC_CHECK(as_int(a.args.at(0)) == value_, "RETURN of stale value");
    read_.active = false;
  } else if (a.name == "ACK") {
    PSC_CHECK(write_.status == WriteStatus::kAck && write_.ack_time <= now,
              "ACK not due");
    write_.status = WriteStatus::kInactive;
  } else if (a.name == "SENDMSG") {
    PSC_CHECK(write_.status == WriteStatus::kSend &&
                  write_.send_time <= now,
              "SENDMSG outside the send phase");
    const int j = a.peer;
    PSC_CHECK(write_.send_procs.erase(j) == 1,
              "duplicate SENDMSG to node " << j);
    if (write_.send_procs.empty()) {
      write_.status = WriteStatus::kAck;
    }
  } else {
    PSC_CHECK(false, "unexpected local action " << to_string(a)
                                                << " at node " << i);
  }
}

Time RwAlgorithm::mintime() const {
  Time m = kTimeMax;
  if (read_.active) m = std::min(m, read_.time);
  if (write_.status == WriteStatus::kSend) m = std::min(m, write_.send_time);
  if (write_.status == WriteStatus::kAck) m = std::min(m, write_.ack_time);
  for (const auto& r : updates_) m = std::min(m, r.update_time);
  return m;
}

Time RwAlgorithm::upper_bound(Time now) const {
  // Figure 3's nu-precondition: now + dt <= mintime. Once something is due
  // (mintime <= now) no further time may pass until it fires.
  const Time m = mintime();
  return m <= now ? now : m;
}

Time RwAlgorithm::next_enabled(Time now) const {
  // All local actions trigger at exact scheduled times; the earliest
  // strictly-future one is the next interesting instant.
  Time ne = kTimeMax;
  auto consider = [&](Time t) {
    if (t > now) ne = std::min(ne, t);
  };
  if (read_.active) consider(read_.time);
  if (write_.status == WriteStatus::kSend) consider(write_.send_time);
  if (write_.status == WriteStatus::kAck) consider(write_.ack_time);
  for (const auto& r : updates_) consider(r.update_time);
  return ne;
}

std::vector<std::unique_ptr<Machine>> make_rw_algorithms(int num_nodes,
                                                         const RwParams& base) {
  std::vector<std::unique_ptr<Machine>> out;
  for (int i = 0; i < num_nodes; ++i) {
    RwParams p = base;
    p.node = i;
    p.num_nodes = num_nodes;
    out.push_back(std::make_unique<RwAlgorithm>(p));
  }
  return out;
}

}  // namespace psc
