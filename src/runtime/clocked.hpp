// ClockedMachine: drives a clock-time machine from a real-time executor.
//
// This is the executable form of the transformation C(A_i, eps) (Def 4.1):
// the wrapped machine was written against a time parameter it believes is
// `now`; the adapter feeds it the node clock c(t) instead. Because the
// wrapped machine literally cannot observe `now`, epsilon-time independence
// (Def 2.6) holds by construction, and the wrapped machine's transition
// structure is untouched — exactly the paper's construction, where
// trans(C(A_i,eps)) is trans(A_i) with `now` re-interpreted as `clock`.
//
// Deadline translation: a clock-time urgency bound cub becomes the last real
// time at which the clock still reads <= cub; a clock-time enabling hint cne
// becomes the first real time at which the clock reads >= cne.
//
// The executor polls a machine with several calls at one `now`
// (enabled_into, next_enabled, upper_bound, clock_reading), so the adapter
// reads its clock once per distinct t and answers the rest from a memo.
//
// Parts: the adapter has its inner machine's parts (a Simulation 1 node's
// members) and forwards the part protocol at c(t), translating each part's
// deadline on its own. Both translations are monotone in the clock
// deadline, so the minimum of the per-part real-time hints equals the
// translation of the inner machine's minimum: the executor's per-part wake
// calendar reaches the same times the whole-node hints did.
#pragma once

#include <memory>

#include "clock/trajectory.hpp"
#include "core/machine.hpp"

namespace psc {

class ClockedMachine final : public Machine {
 public:
  // The trajectory is shared by reference: all parts of one node (and that
  // node's TickSource in the MMT model) observe the same clock (Def 2.7's
  // global clock component).
  ClockedMachine(std::unique_ptr<Machine> inner,
                 std::shared_ptr<const ClockTrajectory> trajectory);

  Machine& inner() { return *inner_; }
  const Machine& inner() const { return *inner_; }
  const ClockTrajectory& trajectory() const { return *traj_; }

  // The adapter reinterprets time, not the signature: the wrapped machine's
  // declaration is the adapter's declaration.
  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time t) override;
  std::vector<Action> enabled(Time t) const override;
  void enabled_into(Time t, std::vector<Action>& out) const override;
  void apply_local(const Action& a, Time t) override;
  Time upper_bound(Time t) const override;
  Time next_enabled(Time t) const override;
  Time clock_reading(Time t) const override;

  std::size_t part_count() const override { return inner_->part_count(); }
  void part_enabled_into(std::size_t part, Time t,
                         std::vector<Action>& out) const override;
  Time part_next_enabled(std::size_t part, Time t) const override;
  Time part_upper_bound(std::size_t part, Time t) const override;
  void take_touched_parts(std::vector<std::uint32_t>& out) override {
    inner_->take_touched_parts(out);
  }

  ModelTraits model_traits() const override {
    ModelTraits tr;
    tr.clock_adapter = true;
    tr.clock_eps = traj_->eps();
    return tr;
  }
  std::size_t member_count() const override { return 1; }
  const Machine* member_at(std::size_t idx) const override {
    return idx == 0 ? inner_.get() : nullptr;
  }

 private:
  // c(t), memoized on the last t asked. The memo is mutable state behind
  // const methods; that is safe because one executor owns the machine and
  // calls it from one thread. It starts at (0, 0), which axiom C1 makes
  // exact for every trajectory.
  Time clock_now(Time t) const;
  // Real-time forms of a clock-time urgency bound and enabling hint, read
  // at real time t.
  Time real_upper_bound(Time cub, Time t) const;
  Time real_next_enabled(Time cne, Time t) const;

  std::unique_ptr<Machine> inner_;
  std::shared_ptr<const ClockTrajectory> traj_;
  mutable Time memo_t_ = 0;
  mutable Time memo_c_ = 0;
};

}  // namespace psc
