// C^m_{i,eps,ell}: the clock subsystem of the MMT model (Section 5.2).
//
// Its sole output is TICK_i(c) where c is the node clock value (within eps
// of real time) at the moment the tick fires. Its single task class has
// boundmap [0, ell], so consecutive ticks are at most ell apart; the exact
// firing times inside that budget are chosen by a seeded adversary. This is
// precisely how the MMT model makes clock values *missable*: the node only
// learns the clock at tick instants.
#pragma once

#include <memory>

#include "clock/trajectory.hpp"
#include "core/machine.hpp"
#include "util/rng.hpp"

namespace psc {

class TickSource final : public Machine {
 public:
  // min_gap_frac in (0, 1]: the adversary draws each gap uniformly from
  // [min_gap_frac * ell, ell]. 1.0 gives the laziest legal clock subsystem.
  TickSource(int node, std::shared_ptr<const ClockTrajectory> trajectory,
             Duration ell, Rng rng, double min_gap_frac = 0.25);

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time t) override;
  void enabled_into(Time t, Candidates& out) const override;
  void apply_local(const Action& a, Time t) override;
  Time upper_bound(Time t) const override;
  Time next_enabled(Time t) const override;
  Time clock_reading(Time t) const override;

  ModelTraits model_traits() const override {
    ModelTraits tr;
    tr.clock_eps = traj_->eps();
    tr.step_ell = ell_;
    return tr;
  }

  std::size_t ticks() const { return ticks_; }

 private:
  Duration draw_gap();
  // c(t), memoized on the last t asked, as ClockedMachine::clock_now does:
  // a TICK reads its clock for the argument when polled and again for the
  // event's clock reading, both at the same t. Mutable state behind const
  // methods, safe because one executor owns the machine and calls it from
  // one thread; it starts at (0, 0), which axiom C1 makes exact.
  Time clock_now(Time t) const {
    if (t != memo_t_) {
      memo_c_ = traj_->clock_at(t);
      memo_t_ = t;
    }
    return memo_c_;
  }

  int node_;
  std::shared_ptr<const ClockTrajectory> traj_;
  Duration ell_;
  Rng rng_;
  double min_gap_frac_;
  Time next_tick_;
  std::size_t ticks_ = 0;
  mutable Time memo_t_ = 0;
  mutable Time memo_c_ = 0;
};

}  // namespace psc
