#include "algos/heartbeat.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

// ---------------------------------------------------------------------------
// HeartbeatSender
// ---------------------------------------------------------------------------

HeartbeatSender::HeartbeatSender(int node, int peer, Duration period)
    : Machine("hb_sender_" + std::to_string(node)),
      node_(node),
      peer_(peer),
      period_(period) {
  PSC_CHECK(period_ > 0, "period must be positive");
}

void HeartbeatSender::declare_signature(SignatureDecl& decl) const {
  decl.input("CRASH", node_);
  decl.output("SENDMSG", node_, peer_);
}

void HeartbeatSender::apply_input(const Action& a, Time /*now*/) {
  PSC_CHECK(a.name == "CRASH", "unexpected input " << to_string(a));
  crashed_ = true;
}

std::vector<Action> HeartbeatSender::enabled(Time now) const {
  std::vector<Action> out;
  if (!crashed_ && now >= next_beat_) {
    out.push_back(make_send(node_, peer_, make_message("HEARTBEAT")));
  }
  return out;
}

void HeartbeatSender::apply_local(const Action& /*a*/, Time now) {
  PSC_CHECK(!crashed_ && now >= next_beat_, "heartbeat out of turn");
  next_beat_ += period_;
  ++sent_;
}

Time HeartbeatSender::upper_bound(Time now) const {
  if (crashed_) return kTimeMax;
  return next_beat_ <= now ? now : next_beat_;
}

Time HeartbeatSender::next_enabled(Time now) const {
  if (crashed_) return kTimeMax;
  return next_beat_ > now ? next_beat_ : kTimeMax;
}

// ---------------------------------------------------------------------------
// HeartbeatMonitor
// ---------------------------------------------------------------------------

HeartbeatMonitor::HeartbeatMonitor(int node, int watched, Duration timeout)
    : Machine("hb_monitor_" + std::to_string(node)),
      node_(node),
      watched_(watched),
      timeout_(timeout),
      deadline_(timeout) {
  PSC_CHECK(timeout_ > 0, "timeout must be positive");
}

void HeartbeatMonitor::declare_signature(SignatureDecl& decl) const {
  decl.input("RECVMSG", node_, watched_);
  decl.output("SUSPECT", node_);
}

void HeartbeatMonitor::apply_input(const Action& a, Time now) {
  PSC_CHECK(a.msg && a.msg->kind == "HEARTBEAT",
            "unexpected message " << to_string(a));
  ++beats_;
  if (!suspected_) deadline_ = now + timeout_;
}

std::vector<Action> HeartbeatMonitor::enabled(Time now) const {
  std::vector<Action> out;
  if (!suspected_ && now >= deadline_) {
    out.push_back(
        make_action("SUSPECT", node_, {Value{std::int64_t{watched_}}}));
  }
  return out;
}

void HeartbeatMonitor::apply_local(const Action& /*a*/, Time now) {
  PSC_CHECK(!suspected_ && now >= deadline_, "suspect out of turn");
  suspected_ = true;
  suspect_time_ = now;
}

Time HeartbeatMonitor::upper_bound(Time now) const {
  if (suspected_) return kTimeMax;
  return deadline_ <= now ? now : deadline_;
}

Time HeartbeatMonitor::next_enabled(Time now) const {
  if (suspected_) return kTimeMax;
  return deadline_ > now ? deadline_ : kTimeMax;
}

}  // namespace psc
