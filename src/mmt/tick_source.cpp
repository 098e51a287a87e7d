#include "mmt/tick_source.hpp"

#include "util/check.hpp"

namespace psc {

TickSource::TickSource(int node,
                       std::shared_ptr<const ClockTrajectory> trajectory,
                       Duration ell, Rng rng, double min_gap_frac)
    : Machine("C^m_" + std::to_string(node)),
      node_(node),
      traj_(std::move(trajectory)),
      ell_(ell),
      rng_(rng),
      min_gap_frac_(min_gap_frac) {
  PSC_CHECK(ell_ > 0, "ell must be positive");
  PSC_CHECK(min_gap_frac_ > 0 && min_gap_frac_ <= 1.0,
            "min_gap_frac=" << min_gap_frac_);
  PSC_CHECK(traj_ != nullptr, "null trajectory");
  set_clocked(true);
  next_tick_ = draw_gap();
}

Duration TickSource::draw_gap() {
  const auto lo = static_cast<Duration>(
      min_gap_frac_ * static_cast<double>(ell_));
  return rng_.uniform(std::max<Duration>(1, lo), ell_);
}

void TickSource::declare_signature(SignatureDecl& decl) const {
  decl.output("TICK", node_);
}

void TickSource::apply_input(const Action& a, Time /*t*/) {
  PSC_CHECK(false, "TickSource has no inputs: " << to_string(a));
}

void TickSource::enabled_into(Time t, Candidates& out) const {
  out.clear();
  if (t >= next_tick_) {
    Action& a = out.slot(names::kTick, node_);
    a.args.emplace_back(traj_->clock_at(t));
    a.msg.reset();
  }
}

void TickSource::apply_local(const Action& /*a*/, Time t) {
  PSC_CHECK(t >= next_tick_, "tick fired early");
  ++ticks_;
  next_tick_ = t + draw_gap();
}

Time TickSource::upper_bound(Time /*t*/) const { return next_tick_; }

Time TickSource::next_enabled(Time t) const {
  return next_tick_ > t ? next_tick_ : kTimeMax;
}

Time TickSource::clock_reading(Time t) const { return traj_->clock_at(t); }

}  // namespace psc
