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
  signature();  // a wrapped machine the node cannot describe fails here
}

Duration MmtNode::draw_gap() {
  const auto lo = static_cast<Duration>(
      min_gap_frac_ * static_cast<double>(ell_));
  return rng_.uniform(std::max<Duration>(1, lo), ell_);
}

void MmtNode::declare_signature(SignatureDecl& decl) const {
  const SignatureDecl::Entry tick{names::kTick, node_, kAnyNode,
                                  ActionRole::kInput};
  const SignatureDecl::Entry step{names::kMmtStep, node_, kAnyNode,
                                  ActionRole::kInternal};
  decl.add(tick.name, tick.node, tick.peer, tick.role);
  decl.add(step.name, step.node, step.peer, step.role);
  const std::vector<SignatureDecl::Entry>& inner = inner_->signature().entries();
  for (const SignatureDecl::Entry& e : inner) {
    PSC_CHECK(!e.overlaps(tick) && !e.overlaps(step),
              name() << ": the wrapped machine declares " << e.name
                     << " at node " << e.node << ", which the MMT node owns");
    if (e.role == ActionRole::kInternal) continue;
    if (e.role == ActionRole::kInput) {
      bool covered = false;
      bool overlapped = false;
      for (const SignatureDecl::Entry& h : inner) {
        if (h.role != ActionRole::kInternal || !h.overlaps(e)) continue;
        overlapped = true;
        if (h.covers(e)) {
          covered = true;
          break;
        }
      }
      if (covered) continue;
      PSC_CHECK(!overlapped,
                name() << ": inner input " << e.name << "(" << e.node << ","
                       << e.peer << ") is only partly shadowed by an inner "
                                    "internal, so no per-kind signature "
                                    "describes the node");
    }
    decl.add(e.name, e.node, e.peer, e.role);
  }
}

bool MmtNode::poll_first_part() {
  const std::size_t parts = inner_->part_count();
  for (std::size_t p = 0; p < parts; ++p) {
    inner_->part_enabled_into(p, simclock_, scratch_);
    if (!scratch_.empty()) return true;
  }
  return false;
}

void MmtNode::catch_up(Time t) {
  const Time target = mmtclock_;
  if (!inner_dirty_ && target < inner_wake_) {
    simclock_ = std::max(simclock_, target);
    return;
  }
  while (simclock_ <= target) {
    // Drain actions enabled at the current simulated clock, in the order
    // the wrapped machine reports them: the first candidate of its first
    // part that has one. Applying one action can change the enabled set,
    // so take only that one and re-query.
    while (poll_first_part()) {
      const Action& a = scratch_.front();
      const ActionRole role = inner_->classify(a);
      inner_local(a);
      if (role == ActionRole::kOutput) {
        PendingOutput& p = pending_.push_back();
        p.action = a;
        p.enqueued_at = t;
        stats_.max_pending = std::max(stats_.max_pending, pending_.size());
      }
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
  if (a.name == names::kTick) {
    const Time c = as_int(a.args.at(0));
    // Clock values are monotone; a stale tick (possible only through
    // adversarial scheduling at equal times) is ignored.
    mmtclock_ = std::max(mmtclock_, c);
    // Inert: enabled_into and both hints read next_step_ and pending_, not
    // mmtclock_ (the next step's catch_up reads it).
    set_last_input_inert(true);
    return;
  }
  set_last_input_inert(false);
  // Def 5.1 input case: catch up to mmtclock first (the input applies to
  // fragstate), then deliver.
  catch_up(t);
  inner_input(a);
}

void MmtNode::enabled_into(Time t, Candidates& out) const {
  out.clear();
  if (t >= next_step_) {
    if (!pending_.empty()) {
      const Action& p = pending_.front().action;
      Action& a = out.slot(p.name, p.node, p.peer);
      a.args = p.args;
      a.msg = p.msg;
    } else {
      out.slot(names::kMmtStep, node_).msg.reset();
    }
  }
}

void MmtNode::apply_local(const Action& a, Time t) {
  PSC_CHECK(t >= next_step_, "MMT step fired early");
  ++stats_.steps;
  if (a.name == names::kMmtStep) {
    PSC_CHECK(pending_.empty(), "tau step with pending outputs");
    catch_up(t);
  } else {
    PSC_CHECK(!pending_.empty() && matches_offer(pending_.front().action, a),
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
