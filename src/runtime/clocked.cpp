#include "runtime/clocked.hpp"

#include "util/check.hpp"

namespace psc {

ClockedMachine::ClockedMachine(std::unique_ptr<Machine> inner,
                               std::shared_ptr<const ClockTrajectory> traj)
    : Machine("C(" + inner->name() + ")"),
      inner_(std::move(inner)),
      traj_(std::move(traj)) {
  PSC_CHECK(inner_ != nullptr, "null inner machine");
  PSC_CHECK(traj_ != nullptr, "null trajectory");
  set_clocked(true);
}

Time ClockedMachine::clock_now(Time t) const {
  if (t != memo_t_) {
    memo_c_ = traj_->clock_at(t);
    memo_t_ = t;
  }
  return memo_c_;
}

void ClockedMachine::declare_signature(SignatureDecl& decl) const {
  inner_->declare_signature(decl);
}

void ClockedMachine::apply_input(const Action& a, Time t) {
  inner_->apply_input(a, clock_now(t));
}

void ClockedMachine::enabled_into(Time t, Candidates& out) const {
  inner_->enabled_into(clock_now(t), out);
}

void ClockedMachine::apply_local(const Action& a, Time t) {
  inner_->apply_local(a, clock_now(t));
}

Time ClockedMachine::upper_bound(Time t) const {
  return real_upper_bound(inner_->upper_bound(clock_now(t)), t);
}

Time ClockedMachine::next_enabled(Time t) const {
  return real_next_enabled(inner_->next_enabled(clock_now(t)), t);
}

void ClockedMachine::part_enabled_into(std::size_t part, Time t,
                                       Candidates& out) const {
  inner_->part_enabled_into(part, clock_now(t), out);
}

Time ClockedMachine::part_upper_bound(std::size_t part, Time t) const {
  return real_upper_bound(inner_->part_upper_bound(part, clock_now(t)), t);
}

Time ClockedMachine::part_next_enabled(std::size_t part, Time t) const {
  return real_next_enabled(inner_->part_next_enabled(part, clock_now(t)), t);
}

Time ClockedMachine::real_upper_bound(Time cub, Time t) const {
  if (cub >= kTimeMax) return kTimeMax;
  Time ub = traj_->time_last_at(cub);
  // A rate>1 segment of the integer-grid trajectory may skip the exact
  // clock value cub; in the continuous model time could advance exactly to
  // it. Permit the first overshoot instant — machines fire on >= deadlines,
  // so the pending action executes there before time moves again.
  if (traj_->clock_at(ub) < cub) ub += 1;
  return ub < t ? t : ub;
}

Time ClockedMachine::real_next_enabled(Time cne, Time t) const {
  if (cne >= kTimeMax) return kTimeMax;
  const Time tn = traj_->time_first_at(cne);
  // The clock can sit on one value across a rounding plateau; the inner
  // machine's hint is in clock time, so re-anchor strictly after t.
  return tn > t ? tn : t + 1;
}

Time ClockedMachine::clock_reading(Time t) const {
  return clock_now(t);
}

}  // namespace psc
