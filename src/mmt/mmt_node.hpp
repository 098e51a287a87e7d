// The transformation M(A^c_{i,eps}, ell) of Definition 5.1.
//
// Wraps a *clock-time* machine (the node composite C(A_i,eps) x S x R of
// Simulation 1, or any epsilon-time-independent clock machine) into an MMT
// node:
//
//   simstate / simclock   the wrapped machine and the clock value its
//                         simulation has reached;
//   mmtclock              the last TICK value received (clock values between
//                         ticks are *missed*);
//   pending               queue of output actions the simulation has
//                         produced but the node has not yet performed.
//
// Definition 5.1's derived "frag" — an execution fragment of the clock
// machine from simstate to clock = mmtclock — is computed operationally by
// catch_up(): repeatedly apply the wrapped machine's enabled local actions
// and advance its clock to the next enabling point, until mmtclock is
// reached; outputs encountered are appended to pending.
//
// frag is computed lazily. The slow walk ends where the wrapped machine's
// next_enabled hint first exceeds mmtclock, and the node keeps that hint
// (the inner wake). Until the wrapped machine's state changes — an input or
// a local action applied to it — and while mmtclock stays below the wake,
// frag is just the passage of time: by the next_enabled contract nothing
// becomes enabled before the hint, so catch_up only moves simclock. A hint
// that is early merely sends the next catch_up down the slow walk.
//
// The node's single task class (all outputs + tau) has boundmap [0, ell]:
// a seeded adversary chooses each step time within the budget. At a step,
// the first pending output is emitted (its effect on the simulated state
// already happened during catch-up — only its external occurrence was
// delayed); with an empty queue the step is the internal tau, which still
// catches up. Inputs are applied immediately (the MMT model places no
// timing constraint on inputs): catch up first, then apply (Def 5.1's input
// case uses fragstate).
//
// The signature is derived from the wrapped machine's declaration:
// TICK(node) is an input and MMTSTEP(node) internal; the wrapped machine's
// inputs and outputs cross the boundary unchanged and its internals vanish
// (they happen silently inside catch_up, so classify says kNotMine). An
// inner input entry is dropped when a single inner internal entry covers
// every kind it matches — e.g. the node composite's RECVMSG(i, j), released
// by the hidden receive buffer R_ji. An input that such an entry covers
// only in part has no exact per-kind description, and neither does an inner
// entry that could match TICK(node) or MMTSTEP(node): the constructor
// rejects both with a CheckError.
#pragma once

#include <memory>

#include "core/machine.hpp"
#include "util/recycling_queue.hpp"
#include "util/rng.hpp"

namespace psc {

struct MmtNodeStats {
  std::size_t steps = 0;           // class firings (outputs + taus)
  std::size_t outputs = 0;         // emitted pending outputs
  std::size_t max_pending = 0;     // high-water mark of the pending queue
  Duration max_emit_delay = 0;     // max (emission time - enqueue time)
};

class MmtNode final : public Machine {
 public:
  // `inner` is driven purely by clock values (epsilon-time independent by
  // construction). min_gap_frac as in TickSource.
  MmtNode(int node, std::unique_ptr<Machine> inner, Duration ell, Rng rng,
          double min_gap_frac = 0.25);

  const MmtNodeStats& stats() const { return stats_; }
  int node() const { return node_; }
  Machine& inner() { return *inner_; }
  Time simclock() const { return simclock_; }
  Time mmtclock() const { return mmtclock_; }

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time t) override;
  void enabled_into(Time t, Candidates& out) const override;
  void apply_local(const Action& a, Time t) override;
  Time upper_bound(Time t) const override;
  Time next_enabled(Time t) const override;
  Time clock_reading(Time t) const override;

  // The MMT wrapper drives its member with simulated clock values (the
  // missed-clock model of Section 5); eps is the TickSource's business.
  ModelTraits model_traits() const override {
    ModelTraits tr;
    tr.clock_adapter = true;
    tr.step_ell = ell_;
    return tr;
  }
  std::size_t member_count() const override { return 1; }
  const Machine* member_at(std::size_t idx) const override {
    return idx == 0 ? inner_.get() : nullptr;
  }

 private:
  struct PendingOutput {
    Action action;
    Time enqueued_at;  // real time of the catch-up that produced it
  };

  // Advances the wrapped machine's clock to mmtclock, applying its urgent
  // local actions; outputs are appended to pending. `t` is the real time
  // (for stats only).
  void catch_up(Time t);
  // Polls the wrapped machine's parts in order at simclock into scratch_,
  // stopping at the first with a candidate; false when none has one. Its
  // front is the front of the whole machine's enabled_into list.
  bool poll_first_part();
  // The wrapped machine's state changes only through these two.
  void inner_input(const Action& a) {
    inner_->apply_input(a, simclock_);
    inner_dirty_ = true;
  }
  void inner_local(const Action& a) {
    inner_->apply_local(a, simclock_);
    inner_dirty_ = true;
  }
  Duration draw_gap();

  int node_;
  std::unique_ptr<Machine> inner_;
  Duration ell_;
  Rng rng_;
  double min_gap_frac_;
  Time simclock_ = 0;
  Time mmtclock_ = 0;
  Time next_step_;
  // The lazily computed frag (see the header comment): the next_enabled
  // hint at which the last slow catch-up stopped, valid while the wrapped
  // machine is untouched since.
  Time inner_wake_ = 0;
  bool inner_dirty_ = true;
  // The catch-up's recycled candidate buffer.
  Candidates scratch_;
  RecyclingQueue<PendingOutput> pending_;
  MmtNodeStats stats_;
};

}  // namespace psc
