#include "mmt/mmt_node.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

MmtNode::MmtNode(int node, std::unique_ptr<Machine> inner, Duration ell,
                 Rng rng, double min_gap_frac)
    : Machine("M(" + inner->name() + ")"),
      node_(node),
      inner_(std::move(inner)),
      ell_(ell),
      rng_(rng),
      min_gap_frac_(min_gap_frac) {
  PSC_CHECK(ell_ > 0, "ell must be positive");
  PSC_CHECK(min_gap_frac_ > 0 && min_gap_frac_ <= 1.0, "min_gap_frac");
  set_clocked(true);
  next_step_ = draw_gap();
}

Duration MmtNode::draw_gap() {
  const auto lo = static_cast<Duration>(
      min_gap_frac_ * static_cast<double>(ell_));
  return rng_.uniform(std::max<Duration>(1, lo), ell_);
}

ActionRole MmtNode::classify(const Action& a) const {
  if (a.name == "TICK" && a.node == node_) return ActionRole::kInput;
  if (a.name == "MMTSTEP" && a.node == node_) return ActionRole::kInternal;
  const ActionRole inner_role = inner_->classify(a);
  // The wrapped machine's internal actions happen silently inside
  // catch_up(); only its inputs and outputs cross the MMT boundary.
  if (inner_role == ActionRole::kInternal) return ActionRole::kNotMine;
  return inner_role;
}

bool MmtNode::declare_signature(SignatureDecl& decl) const {
  SignatureDecl inner;
  if (!inner_->declare_signature(inner)) return false;
  const SignatureDecl::Entry tick{"TICK", node_, kAnyNode, ActionRole::kInput};
  const SignatureDecl::Entry step{"MMTSTEP", node_, kAnyNode,
                                  ActionRole::kInternal};
  std::vector<SignatureDecl::Entry> kept;
  for (const SignatureDecl::Entry& e : inner.entries()) {
    // classify() answers TICK(node)/MMTSTEP(node) before asking inner.
    if (e.overlaps(tick) || e.overlaps(step)) return false;
    if (e.role == ActionRole::kInternal) continue;
    if (e.role == ActionRole::kInput) {
      bool covered = false;
      bool overlapped = false;
      for (const SignatureDecl::Entry& h : inner.entries()) {
        if (h.role != ActionRole::kInternal || !h.overlaps(e)) continue;
        overlapped = true;
        if (h.covers(e)) {
          covered = true;
          break;
        }
      }
      if (covered) continue;
      if (overlapped) return false;
    }
    kept.push_back(e);
  }
  decl.add(tick.name, tick.node, tick.peer, tick.role);
  decl.add(step.name, step.node, step.peer, step.role);
  for (SignatureDecl::Entry& e : kept) {
    decl.add(std::move(e.name), e.node, e.peer, e.role);
  }
  return true;
}

void MmtNode::catch_up(Time t) {
  const Time target = mmtclock_;
  if (!inner_dirty_ && target < inner_wake_) {
    simclock_ = std::max(simclock_, target);
    return;
  }
  while (simclock_ <= target) {
    // Drain actions enabled at the current simulated clock.
    bool progressed = true;
    while (progressed) {
      progressed = false;
      auto acts = inner_->enabled(simclock_);
      if (acts.empty()) break;
      // Deterministic order: as reported. Applying one action can change
      // the enabled set, so take only the first and re-query.
      Action a = std::move(acts.front());
      const ActionRole role = inner_->classify(a);
      inner_local(a);
      if (role == ActionRole::kOutput) {
        pending_.push_back({std::move(a), t});
        stats_.max_pending = std::max(stats_.max_pending, pending_.size());
      }
      progressed = true;
    }
    const Time nxt = inner_->next_enabled(simclock_);
    if (nxt > target) {
      inner_wake_ = nxt;
      inner_dirty_ = false;
      break;
    }
    PSC_CHECK(nxt > simclock_, "inner machine does not advance");
    simclock_ = nxt;
  }
  simclock_ = std::max(simclock_, target);
}

void MmtNode::apply_input(const Action& a, Time t) {
  if (a.name == "TICK") {
    const Time c = as_int(a.args.at(0));
    // Clock values are monotone; a stale tick (possible only through
    // adversarial scheduling at equal times) is ignored.
    mmtclock_ = std::max(mmtclock_, c);
    return;
  }
  // Def 5.1 input case: catch up to mmtclock first (the input applies to
  // fragstate), then deliver.
  catch_up(t);
  inner_input(a);
}

std::vector<Action> MmtNode::enabled(Time t) const {
  std::vector<Action> out;
  if (t >= next_step_) {
    if (!pending_.empty()) {
      out.push_back(pending_.front().action);
    } else {
      out.push_back(make_action("MMTSTEP", node_));
    }
  }
  return out;
}

void MmtNode::enabled_into(Time t, std::vector<Action>& out) const {
  // Same single candidate as enabled(), rebuilt in place so the executor's
  // re-poll reuses the name, args and message buffers.
  if (t < next_step_) {
    out.clear();
    return;
  }
  out.resize(1);
  Action& a = out[0];
  if (!pending_.empty()) {
    a = pending_.front().action;
  } else {
    a.name.assign("MMTSTEP");
    a.node = node_;
    a.peer = kNoNode;
    a.args.clear();
    a.msg.reset();
  }
}

void MmtNode::apply_local(const Action& a, Time t) {
  PSC_CHECK(t >= next_step_, "MMT step fired early");
  ++stats_.steps;
  if (a.name == "MMTSTEP") {
    PSC_CHECK(pending_.empty(), "tau step with pending outputs");
    catch_up(t);
  } else {
    PSC_CHECK(!pending_.empty() && pending_.front().action == a,
              "MMT output out of order: " << to_string(a));
    const Duration delay = t - pending_.front().enqueued_at;
    stats_.max_emit_delay = std::max(stats_.max_emit_delay, delay);
    pending_.pop_front();
    ++stats_.outputs;
    // Def 5.1 output case: the new fragment's outputs are appended after
    // the emission.
    catch_up(t);
  }
  next_step_ = t + draw_gap();
}

Time MmtNode::upper_bound(Time /*t*/) const { return next_step_; }

Time MmtNode::next_enabled(Time t) const {
  return next_step_ > t ? next_step_ : kTimeMax;
}

Time MmtNode::clock_reading(Time /*t*/) const { return mmtclock_; }

}  // namespace psc
