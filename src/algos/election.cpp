#include "algos/election.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

ElectionNode::ElectionNode(const ElectionParams& params)
    : Machine("elect_" + std::to_string(params.node)), params_(params) {
  PSC_CHECK(params_.slot > 0, "slot must be positive");
  PSC_CHECK(params_.num_nodes >= 1, "num_nodes");
  PSC_CHECK(params_.node >= 0 && params_.node < params_.num_nodes, "node id");
}

Time ElectionNode::claim_time() const {
  return static_cast<Time>(params_.num_nodes - 1 - params_.node) *
         params_.slot;
}

Time ElectionNode::announce_time() const {
  return static_cast<Time>(params_.num_nodes - 1) * params_.slot +
         params_.d2_design + params_.margin;
}

void ElectionNode::declare_signature(SignatureDecl& decl) const {
  const int i = params_.node;
  // Claims travel between distinct nodes only.
  for (int j = 0; j < params_.num_nodes; ++j) {
    if (j != i) decl.input("RECVMSG", i, j);
  }
  decl.output("SENDMSG", i);
  decl.output("LEADER", i);
  decl.internal("CLAIM_SELF", i);
}

void ElectionNode::apply_input(const Action& a, Time /*now*/) {
  PSC_CHECK(a.msg && a.msg->kind == "CLAIM", "unexpected message");
  const int claimer = static_cast<int>(as_int(a.msg->fields.at(0)));
  best_seen_ = std::max(best_seen_, claimer);
  if (!claimed_ && claimer > params_.node) suppressed_ = true;
}

std::vector<Action> ElectionNode::enabled(Time now) const {
  std::vector<Action> out;
  const int i = params_.node;
  // Claim our slot (internal): nobody higher spoke before it arrived.
  if (!claimed_ && !suppressed_ && now >= claim_time()) {
    out.push_back(make_action("CLAIM_SELF", i));
  }
  // Broadcast the claim, urgently.
  if (claimed_) {
    for (int j : send_targets_) {
      out.push_back(
          make_send(i, j, make_message("CLAIM", {Value{std::int64_t{i}}})));
    }
  }
  // Announce after the collection window, once our sends are out.
  if (!announced_ && now >= announce_time() && send_targets_.empty()) {
    const int leader = std::max(best_seen_, claimed_ ? i : -1);
    PSC_CHECK(leader >= 0, "announcement with no claimant in sight");
    out.push_back(
        make_action("LEADER", i, {Value{std::int64_t{leader}}}));
  }
  return out;
}

void ElectionNode::apply_local(const Action& a, Time now) {
  const int i = params_.node;
  if (a.name == "CLAIM_SELF") {
    PSC_CHECK(!claimed_ && !suppressed_ && now >= claim_time(),
              "claim out of turn");
    claimed_ = true;
    for (int j = 0; j < params_.num_nodes; ++j) {
      if (j != i) send_targets_.push_back(j);
    }
  } else if (a.name == "SENDMSG") {
    auto it = std::find(send_targets_.begin(), send_targets_.end(), a.peer);
    PSC_CHECK(it != send_targets_.end(), "duplicate claim send");
    send_targets_.erase(it);
  } else if (a.name == "LEADER") {
    PSC_CHECK(!announced_ && now >= announce_time(), "announce out of turn");
    announced_ = true;
    leader_ = static_cast<int>(as_int(a.args.at(0)));
  } else {
    PSC_CHECK(false, "unexpected local action " << to_string(a));
  }
}

Time ElectionNode::upper_bound(Time now) const {
  Time m = kTimeMax;
  if (!claimed_ && !suppressed_) m = std::min(m, claim_time());
  if (!send_targets_.empty()) m = std::min(m, now);  // sends are urgent
  if (!announced_) m = std::min(m, announce_time());
  return m <= now ? now : m;
}

Time ElectionNode::next_enabled(Time now) const {
  Time ne = kTimeMax;
  auto consider = [&](Time t) {
    if (t > now) ne = std::min(ne, t);
  };
  if (!claimed_ && !suppressed_) consider(claim_time());
  if (!announced_) consider(announce_time());
  return ne;
}

std::vector<std::unique_ptr<Machine>> make_election_nodes(
    int num_nodes, const ElectionParams& base) {
  std::vector<std::unique_ptr<Machine>> out;
  for (int i = 0; i < num_nodes; ++i) {
    ElectionParams p = base;
    p.node = i;
    p.num_nodes = num_nodes;
    out.push_back(std::make_unique<ElectionNode>(p));
  }
  return out;
}

}  // namespace psc
