#include "algos/tdma.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace psc {

TdmaMutex::TdmaMutex(const TdmaParams& params)
    : Machine("tdma_" + std::to_string(params.node)), params_(params) {
  PSC_CHECK(params_.slot > 0, "slot must be positive");
  PSC_CHECK(params_.guard >= 0 && 2 * params_.guard < params_.slot,
            "guard must leave a nonempty lease: 2*guard < slot");
  PSC_CHECK(params_.node >= 0 && params_.node < params_.num_nodes, "node id");
  grant_at_ = next_slot_start(0) + params_.guard;
}

Time TdmaMutex::frame_length() const {
  return static_cast<Time>(params_.num_nodes) * params_.slot;
}

Time TdmaMutex::next_slot_start(Time t) const {
  const Time frame = frame_length();
  const Time mine = static_cast<Time>(params_.node) * params_.slot;
  const Time base = (t / frame) * frame + mine;
  return base >= t ? base : base + frame;
}

void TdmaMutex::declare_signature(SignatureDecl& decl) const {
  decl.output("GRANT", params_.node);
  decl.output("RELEASE", params_.node);
}

void TdmaMutex::apply_input(const Action& a, Time /*now*/) {
  PSC_CHECK(false, "TDMA mutex has no inputs: " << to_string(a));
}

std::vector<Action> TdmaMutex::enabled(Time now) const {
  std::vector<Action> out;
  const int i = params_.node;
  if (!holding_ && leases_ < params_.max_leases && now >= grant_at_) {
    out.push_back(
        make_action("GRANT", i, {Value{static_cast<std::int64_t>(leases_)}}));
  }
  if (holding_ && now >= release_at_) {
    out.push_back(make_action(
        "RELEASE", i, {Value{static_cast<std::int64_t>(leases_ - 1)}}));
  }
  return out;
}

void TdmaMutex::apply_local(const Action& a, Time now) {
  if (a.name == "GRANT") {
    PSC_CHECK(!holding_ && now >= grant_at_, "grant out of turn");
    holding_ = true;
    ++leases_;
    // Release at the end of the slot the grant was scheduled in, minus the
    // guard band. (grant_at_ - guard) is that slot's start.
    release_at_ = grant_at_ - params_.guard + params_.slot - params_.guard;
  } else if (a.name == "RELEASE") {
    PSC_CHECK(holding_ && now >= release_at_, "release out of turn");
    holding_ = false;
    if (leases_ < params_.max_leases) {
      grant_at_ = next_slot_start(release_at_ + params_.guard + 1) +
                  params_.guard;
    }
  } else {
    PSC_CHECK(false, "unexpected action " << to_string(a));
  }
}

Time TdmaMutex::upper_bound(Time now) const {
  Time m = kTimeMax;
  if (!holding_ && leases_ < params_.max_leases) m = std::min(m, grant_at_);
  if (holding_) m = std::min(m, release_at_);
  return m <= now ? now : m;
}

Time TdmaMutex::next_enabled(Time now) const {
  Time ne = kTimeMax;
  if (!holding_ && leases_ < params_.max_leases && grant_at_ > now) {
    ne = std::min(ne, grant_at_);
  }
  if (holding_ && release_at_ > now) ne = std::min(ne, release_at_);
  return ne;
}

std::vector<std::unique_ptr<Machine>> make_tdma_nodes(int num_nodes,
                                                      const TdmaParams& base) {
  std::vector<std::unique_ptr<Machine>> out;
  for (int i = 0; i < num_nodes; ++i) {
    TdmaParams p = base;
    p.node = i;
    p.num_nodes = num_nodes;
    out.push_back(std::make_unique<TdmaMutex>(p));
  }
  return out;
}

std::vector<Lease> extract_leases(const TimedTrace& trace) {
  std::vector<Lease> leases;
  std::map<int, Lease> open;
  for (const auto& e : trace) {
    if (e.action.name == "GRANT") {
      PSC_CHECK(open.find(e.action.node) == open.end(),
                "nested GRANT at node " << e.action.node);
      open[e.action.node] = {e.action.node, e.time, 0};
    } else if (e.action.name == "RELEASE") {
      auto it = open.find(e.action.node);
      PSC_CHECK(it != open.end(), "RELEASE without GRANT");
      it->second.release = e.time;
      leases.push_back(it->second);
      open.erase(it);
    }
  }
  return leases;
}

std::size_t count_overlaps(const std::vector<Lease>& leases) {
  std::size_t overlaps = 0;
  for (std::size_t a = 0; a < leases.size(); ++a) {
    for (std::size_t b = a + 1; b < leases.size(); ++b) {
      if (leases[a].node == leases[b].node) continue;
      const Time lo = std::max(leases[a].grant, leases[b].grant);
      const Time hi = std::min(leases[a].release, leases[b].release);
      if (lo < hi) ++overlaps;
    }
  }
  return overlaps;
}

}  // namespace psc
