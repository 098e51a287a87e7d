#include "algos/timesync.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

// ---------------------------------------------------------------------------
// TimeServer
// ---------------------------------------------------------------------------

TimeServer::TimeServer(int node)
    : Machine("timeserver_" + std::to_string(node)), node_(node) {}

void TimeServer::declare_signature(SignatureDecl& decl) const {
  decl.input("RECVMSG", node_);
  decl.output("SENDMSG", node_);
}

void TimeServer::apply_input(const Action& a, Time /*clock*/) {
  PSC_CHECK(a.msg && a.msg->kind == "SYNCREQ", "unexpected message");
  pending_.push_back({a.peer, as_int(a.msg->fields.at(0))});
}

void TimeServer::enabled_into(Time clock, Candidates& out) const {
  out.clear();
  for (const auto& p : pending_) {
    out.push_back(make_send(
        node_, p.client,
        make_message("SYNCRESP", {Value{p.probe_id}, Value{clock}})));
  }
}

void TimeServer::apply_local(const Action& a, Time /*clock*/) {
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [&](const PendingReply& p) {
                           return p.client == a.peer &&
                                  p.probe_id == as_int(a.msg->fields.at(0));
                         });
  PSC_CHECK(it != pending_.end(), "reply without request");
  pending_.erase(it);
  ++served_;
}

Time TimeServer::upper_bound(Time clock) const {
  return pending_.empty() ? kTimeMax : clock;  // replies are urgent
}

// ---------------------------------------------------------------------------
// SyncClient
// ---------------------------------------------------------------------------

SyncClient::SyncClient(int node, int server, Duration period, int count,
                       Duration d1)
    : Machine("syncclient_" + std::to_string(node)),
      node_(node),
      server_(server),
      period_(period),
      count_(count),
      d1_(d1) {
  PSC_CHECK(period_ > 0, "period");
  PSC_CHECK(count_ >= 0, "count");
}

void SyncClient::declare_signature(SignatureDecl& decl) const {
  decl.input("RECVMSG", node_, server_);
  decl.output("SENDMSG", node_, server_);
}

void SyncClient::apply_input(const Action& a, Time clock) {
  PSC_CHECK(a.msg && a.msg->kind == "SYNCRESP", "unexpected message");
  const std::int64_t id = as_int(a.msg->fields.at(0));
  if (!awaiting_ || id != probe_id_) return;  // stale response
  const Time server_ts = as_int(a.msg->fields.at(1));
  const Duration rtt = clock - probe_sent_clock_;
  SyncSample s;
  s.probe_id = id;
  // Cristian: the server stamped somewhere inside the round trip; assume
  // the midpoint. estimate = server_ts + rtt/2 - clock.
  s.estimated_offset = server_ts + rtt / 2 - clock;
  s.error_bound = rtt / 2 - d1_;
  s.client_clock = clock;
  samples_.push_back(s);
  awaiting_ = false;
  next_probe_ = clock + period_;
}

void SyncClient::enabled_into(Time clock, Candidates& out) const {
  out.clear();
  if (!awaiting_ && sent_ < count_ && clock >= next_probe_) {
    out.push_back(make_send(
        node_, server_,
        make_message("SYNCREQ", {Value{static_cast<std::int64_t>(sent_)}})));
  }
}

void SyncClient::apply_local(const Action& /*a*/, Time clock) {
  PSC_CHECK(!awaiting_ && sent_ < count_ && clock >= next_probe_,
            "probe out of turn");
  awaiting_ = true;
  probe_id_ = sent_;
  probe_sent_clock_ = clock;
  ++sent_;
}

Time SyncClient::upper_bound(Time clock) const {
  if (awaiting_ || sent_ >= count_) return kTimeMax;
  return next_probe_ <= clock ? clock : next_probe_;
}

Time SyncClient::next_enabled(Time clock) const {
  if (awaiting_ || sent_ >= count_) return kTimeMax;
  return next_probe_ > clock ? next_probe_ : kTimeMax;
}

}  // namespace psc
