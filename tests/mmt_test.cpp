// Tests for the MMT model (Section 5): TickSource timing, the M(A, ell)
// transformation's catch-up/pending semantics, and the composed Theorem 5.2
// pipeline on the register algorithm.
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "core/trace_io.hpp"
#include "mmt/mmt_system.hpp"
#include "rw/harness.hpp"
#include "rw/spec.hpp"
#include "runtime/composite.hpp"
#include "runtime/script.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

// --- TickSource ---------------------------------------------------------------

TEST(TickSourceTest, GapsNeverExceedEll) {
  const Duration ell = microseconds(10);
  auto traj = std::make_shared<ClockTrajectory>(ClockTrajectory::perfect());
  Executor exec({.horizon = milliseconds(5), .seed = 3});
  auto ts = std::make_unique<TickSource>(0, traj, ell, Rng(3));
  TickSource* tsp = ts.get();
  exec.add_owned(std::move(ts));
  exec.run();
  const auto ticks = project_name(exec.events(), "TICK");
  ASSERT_GT(ticks.size(), 100u);
  EXPECT_EQ(tsp->ticks(), ticks.size());
  Time prev = 0;
  for (const auto& e : ticks) {
    EXPECT_LE(e.time - prev, ell);
    prev = e.time;
    // TICK payload equals the clock at fire time (perfect clock: = now).
    EXPECT_EQ(as_int(e.action.args.at(0)), e.time);
  }
}

TEST(TickSourceTest, PayloadTracksSkewedClock) {
  const Duration eps = microseconds(50);
  Rng rng(1);
  auto traj = std::make_shared<ClockTrajectory>(
      OffsetDrift(+1.0).generate(eps, seconds(1), rng));
  Executor exec({.horizon = milliseconds(2), .seed = 3});
  exec.add_owned(std::make_unique<TickSource>(0, traj, microseconds(20),
                                              Rng(3)));
  exec.run();
  for (const auto& e : project_name(exec.events(), "TICK")) {
    EXPECT_EQ(as_int(e.action.args.at(0)), traj->clock_at(e.time));
    EXPECT_LE(std::llabs(as_int(e.action.args.at(0)) - e.time), eps);
  }
}

TEST(TickSourceTest, RejectsBadParameters) {
  auto traj = std::make_shared<ClockTrajectory>(ClockTrajectory::perfect());
  EXPECT_THROW(TickSource(0, traj, 0, Rng(1)), CheckError);
  EXPECT_THROW(TickSource(0, traj, 10, Rng(1), 0.0), CheckError);
  EXPECT_THROW(TickSource(0, traj, 10, Rng(1), 1.5), CheckError);
}

// --- MmtNode ------------------------------------------------------------------

// A clock-time machine that emits OUT(c) at clock times c = period, 2p, 3p...
class PeriodicEmitter final : public Machine {
 public:
  PeriodicEmitter(int node, Duration period, int count)
      : Machine("periodic"), node_(node), period_(period), count_(count) {}

  void declare_signature(SignatureDecl& decl) const override {
    decl.output("OUT", node_);
  }
  void apply_input(const Action&, Time) override {}
  std::vector<Action> enabled(Time clock) const override {
    if (emitted_ < count_ && next_due_ <= clock) {
      return {make_action("OUT", node_, {Value{next_due_}})};
    }
    return {};
  }
  void apply_local(const Action&, Time) override {
    ++emitted_;
    next_due_ += period_;
  }
  Time upper_bound(Time clock) const override {
    if (emitted_ >= count_) return kTimeMax;
    return next_due_ <= clock ? clock : next_due_;
  }
  Time next_enabled(Time clock) const override {
    if (emitted_ >= count_) return kTimeMax;
    return next_due_ > clock ? next_due_ : kTimeMax;
  }

 private:
  int node_;
  Duration period_;
  int count_;
  int emitted_ = 0;
  Time next_due_;

 public:
  void init_due() { next_due_ = period_; }
};

std::unique_ptr<PeriodicEmitter> make_emitter(int node, Duration period,
                                              int count) {
  auto e = std::make_unique<PeriodicEmitter>(node, period, count);
  e->init_due();
  return e;
}

TEST(MmtNodeTest, OutputsAreDelayedButOrderedAndComplete) {
  const Duration ell = microseconds(5);
  const Duration period = microseconds(50);
  const int count = 40;
  auto traj = std::make_shared<ClockTrajectory>(ClockTrajectory::perfect());
  Executor exec({.horizon = milliseconds(10), .seed = 7});
  auto node = std::make_unique<MmtNode>(0, make_emitter(0, period, count),
                                        ell, Rng(7));
  MmtNode* np = node.get();
  exec.add_owned(std::move(node));
  exec.add_owned(std::make_unique<TickSource>(0, traj, ell, Rng(8)));
  exec.run();
  const auto outs = project_name(exec.events(), "OUT");
  ASSERT_EQ(outs.size(), static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    const Time due = (k + 1) * period;  // clock time the emitter scheduled
    EXPECT_EQ(as_int(outs[static_cast<size_t>(k)].action.args.at(0)), due);
    // Emission happens at or after the due time (the node must first *see*
    // a tick past it), and within the shift budget: the tick lag (<= ell),
    // one step to process (<= ell), plus queue drain (here <= 1 deep).
    EXPECT_GE(outs[static_cast<size_t>(k)].time, due);
    EXPECT_LE(outs[static_cast<size_t>(k)].time, due + 4 * ell);
  }
  EXPECT_EQ(np->stats().outputs, static_cast<std::size_t>(count));
  EXPECT_GE(np->stats().steps, np->stats().outputs);
}

TEST(MmtNodeTest, BurstDrainsOnePerStep) {
  // An emitter due at a single instant with a burst: outputs drain one per
  // MMT step, so the i-th is delayed by about i steps — the k*ell term of
  // Theorem 5.1.
  const Duration ell = microseconds(5);
  auto traj = std::make_shared<ClockTrajectory>(ClockTrajectory::perfect());
  Executor exec({.horizon = milliseconds(10), .seed = 7});
  // period=1ns, so all 10 outputs become due essentially at once.
  auto node = std::make_unique<MmtNode>(0, make_emitter(0, 1, 10), ell,
                                        Rng(7), /*min_gap_frac=*/1.0);
  MmtNode* np = node.get();
  exec.add_owned(std::move(node));
  exec.add_owned(std::make_unique<TickSource>(0, traj, ell, Rng(8), 1.0));
  exec.run();
  const auto outs = project_name(exec.events(), "OUT");
  ASSERT_EQ(outs.size(), 10u);
  // With min_gap_frac = 1.0 every step is exactly ell apart.
  for (std::size_t k = 1; k < outs.size(); ++k) {
    EXPECT_EQ(outs[k].time - outs[k - 1].time, ell);
  }
  EXPECT_GE(np->stats().max_pending, 9u);
  EXPECT_GE(np->stats().max_emit_delay, 8 * ell);
}

TEST(MmtNodeTest, InputsApplyAfterCatchUp) {
  // The Def 5.1 input case: deliver an input; the machine must first have
  // caught up to mmtclock. We test via the register algorithm below; here
  // just check a TICK then input does not throw and advances simclock.
  auto node = MmtNode(0, make_emitter(0, microseconds(1), 0), microseconds(5),
                      Rng(1));
  EXPECT_EQ(node.simclock(), 0);
  node.apply_input(make_action("TICK", 0, {Value{std::int64_t{1000}}}), 2000);
  EXPECT_EQ(node.mmtclock(), 1000);
  EXPECT_EQ(node.simclock(), 0);  // TICK alone does not run the simulation
}

TEST(MmtNodeTest, StaleTickIgnored) {
  auto node = MmtNode(0, make_emitter(0, microseconds(1), 0), microseconds(5),
                      Rng(1));
  node.apply_input(make_action("TICK", 0, {Value{std::int64_t{1000}}}), 2000);
  node.apply_input(make_action("TICK", 0, {Value{std::int64_t{500}}}), 2100);
  EXPECT_EQ(node.mmtclock(), 1000);
}

// --- the catch-up wake memo -----------------------------------------------------

// Echoes IN(node, v) as ECHO(node, v) `delay` clock units after the input.
class DelayedEcho final : public Machine {
 public:
  DelayedEcho(int node, Duration delay)
      : Machine("echo"), node_(node), delay_(delay) {}

  void declare_signature(SignatureDecl& decl) const override {
    decl.input("IN", node_);
    decl.output("ECHO", node_);
  }
  void apply_input(const Action& a, Time clock) override {
    due_.push_back({clock + delay_, as_int(a.args.at(0))});
  }
  std::vector<Action> enabled(Time clock) const override {
    if (due_.empty() || due_.front().at > clock) return {};
    return {make_action("ECHO", node_, {Value{due_.front().value}})};
  }
  void apply_local(const Action&, Time) override { due_.pop_front(); }
  Time upper_bound(Time clock) const override {
    if (due_.empty()) return kTimeMax;
    return std::max(clock, due_.front().at);
  }
  Time next_enabled(Time clock) const override {
    if (due_.empty() || due_.front().at <= clock) return kTimeMax;
    return due_.front().at;
  }

 private:
  struct Due {
    Time at;
    std::int64_t value;
  };
  int node_;
  Duration delay_;
  std::deque<Due> due_;
};

// Forwards to a wrapped clock-time machine and counts the enabled() and
// next_enabled() calls made on it. With early > 0 its next_enabled hint is
// early — never more than `early` past the query — which the Machine
// contract allows: the hint only promises that nothing is enabled before it.
class PollCounter final : public Machine {
 public:
  explicit PollCounter(std::unique_ptr<Machine> inner, Duration early = 0)
      : Machine("count(" + inner->name() + ")"),
        inner_(std::move(inner)),
        early_(early) {}

  void declare_signature(SignatureDecl& decl) const override {
    inner_->declare_signature(decl);
  }
  void apply_input(const Action& a, Time t) override {
    inner_->apply_input(a, t);
  }
  std::vector<Action> enabled(Time t) const override {
    ++polls;
    return inner_->enabled(t);
  }
  void apply_local(const Action& a, Time t) override {
    inner_->apply_local(a, t);
  }
  Time upper_bound(Time t) const override { return inner_->upper_bound(t); }
  Time next_enabled(Time t) const override {
    ++polls;
    const Time hint = inner_->next_enabled(t);
    return early_ > 0 ? std::min(hint, t + early_) : hint;
  }

  mutable std::size_t polls = 0;

 private:
  std::unique_ptr<Machine> inner_;
  Duration early_;
};

// Drives an MmtNode by hand: TICK(c), then one step `ell` of real time after
// the previous one (so the step budget is always due). Returns the action
// the step performed.
Action tick_and_step(MmtNode& node, Time c, Time& t, Duration ell) {
  t += ell;
  node.apply_input(make_action("TICK", 0, {Value{c}}), t);
  const auto acts = node.enabled(t);
  PSC_CHECK(acts.size() == 1, "step not due");
  node.apply_local(acts[0], t);
  return acts[0];
}

TEST(MmtNodeMemoTest, StepsBelowTheWakeDoNotPollTheInnerMachine) {
  const Duration ell = microseconds(5);
  const Duration period = microseconds(100);
  auto counter = std::make_unique<PollCounter>(make_emitter(0, period, 3));
  PollCounter* pc = counter.get();
  MmtNode node(0, std::move(counter), ell, Rng(1));
  Time t = 0;
  // The first step walks (the memo starts dirty) and stops at the emitter's
  // first due time, `period`.
  EXPECT_EQ(tick_and_step(node, 0, t, ell).name, "MMTSTEP");
  EXPECT_GT(pc->polls, 0u);
  pc->polls = 0;
  for (Time c = microseconds(1); c < period; c += microseconds(7)) {
    EXPECT_EQ(tick_and_step(node, c, t, ell).name, "MMTSTEP");
    EXPECT_EQ(node.simclock(), c);
  }
  EXPECT_EQ(pc->polls, 0u);
  // A tick exactly at the wake must walk: OUT(period) becomes enabled at
  // clock == period, not after it.
  EXPECT_EQ(tick_and_step(node, period, t, ell).name, "MMTSTEP");
  EXPECT_GT(pc->polls, 0u);
  const auto next = node.enabled(t + ell);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0], make_action("OUT", 0, {Value{period}}));
}

TEST(MmtNodeMemoTest, AnInputInvalidatesTheMemo) {
  const Duration ell = microseconds(5);
  const Duration delay = microseconds(20);
  auto counter =
      std::make_unique<PollCounter>(std::make_unique<DelayedEcho>(0, delay));
  PollCounter* pc = counter.get();
  MmtNode node(0, std::move(counter), ell, Rng(1));
  Time t = 0;
  tick_and_step(node, microseconds(1), t, ell);
  pc->polls = 0;
  // Nothing is scheduled, so the wake is kTimeMax and steps stay silent.
  tick_and_step(node, microseconds(2), t, ell);
  EXPECT_EQ(pc->polls, 0u);
  node.apply_input(make_action("IN", 0, {Value{std::int64_t{7}}}), t);
  // The echo is due at clock 2us + delay; a tick past it must walk and
  // find it.
  EXPECT_EQ(tick_and_step(node, microseconds(2) + delay, t, ell).name,
            "MMTSTEP");
  EXPECT_GT(pc->polls, 0u);
  const auto next = node.enabled(t + ell);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0], make_action("ECHO", 0, {Value{std::int64_t{7}}}));
}

TEST(MmtNodeMemoTest, AnEarlyHintGivesTheSameOutputs) {
  // The same emitter/echo node driven by an exact and by an early
  // next_enabled hint: the trace is identical, only the poll counts differ.
  const Duration ell = microseconds(5);
  auto run = [ell](Duration early, std::size_t* polls) {
    auto traj =
        std::make_shared<ClockTrajectory>(ClockTrajectory::perfect());
    Executor exec({.horizon = milliseconds(3), .seed = 7});
    auto inner = std::make_unique<CompositeMachine>("inner");
    inner->add(make_emitter(0, microseconds(40), 50));
    inner->add(std::make_unique<DelayedEcho>(0, microseconds(13)));
    auto counter = std::make_unique<PollCounter>(std::move(inner), early);
    PollCounter* pc = counter.get();
    exec.add_owned(
        std::make_unique<MmtNode>(0, std::move(counter), ell, Rng(7)));
    exec.add_owned(std::make_unique<TickSource>(0, traj, ell, Rng(8)));
    std::vector<ScriptMachine::Step> script;
    for (int k = 0; k < 20; ++k) {
      script.push_back({microseconds(90) * (k + 1),
                        make_action("IN", 0, {Value{std::int64_t{k}}})});
    }
    exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(script)));
    exec.run();
    *polls = pc->polls;
    return trace_to_text(exec.events());
  };
  std::size_t exact_polls = 0;
  std::size_t early_polls = 0;
  const std::string exact = run(0, &exact_polls);
  const std::string early = run(microseconds(3), &early_polls);
  EXPECT_EQ(exact, early);
  EXPECT_NE(exact.find("OUT"), std::string::npos);
  EXPECT_NE(exact.find("ECHO"), std::string::npos);
  EXPECT_GT(early_polls, exact_polls);
}

// --- Theorem 5.2 pipeline on the register ------------------------------------

RwRunConfig mmt_config() {
  RwRunConfig cfg;
  cfg.num_nodes = 3;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(300);
  cfg.eps = microseconds(40);
  cfg.c = microseconds(30);
  cfg.super = true;
  cfg.ops_per_node = 8;
  cfg.think_min = 0;
  cfg.think_max = microseconds(500);
  cfg.write_fraction = 0.5;
  cfg.horizon = seconds(5);
  return cfg;
}

class MmtPipeline
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(MmtPipeline, RegisterStaysLinearizableUnderMmt) {
  // (Q_eps)^{k ell + 2 eps + 3 ell} ⊆ P (end of Section 6.3): the full
  // Theorem 5.2 deployment of algorithm S still implements a plain
  // linearizable register — responses only shift later, which can only
  // relax the real-time order constraints.
  const auto [seed, drift_idx] = GetParam();
  const auto models = standard_drift_models();
  RwRunConfig cfg = mmt_config();
  cfg.seed = seed;
  const Duration ell = microseconds(5);
  const int k = cfg.num_nodes + 2;
  const auto result = run_rw_mmt(cfg, *models[drift_idx], ell, k);
  ASSERT_GE(result.ops.size(), 15u);
  EXPECT_TRUE(check_linearizable(result.ops, cfg.v0))
      << "drift=" << models[drift_idx]->name() << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByDrifts, MmtPipeline,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 5, 9),
                       ::testing::Values<std::size_t>(0, 2, 3, 5)));

TEST(MmtPipelineTest, LatencyWithinClockBoundPlusShift) {
  // Theorem 5.2: responses shift at most k*ell + 2*eps + 3*ell into the
  // future relative to the clock-model bounds (which themselves carry the
  // +-2eps real-time slack for drift). The design d2' also grows by k*ell,
  // which adds to the write wait.
  RwRunConfig cfg = mmt_config();
  const Duration ell = microseconds(5);
  const int k = cfg.num_nodes + 2;
  const Duration shift = mmt_shift_bound(k, ell, cfg.eps);
  const auto models = standard_drift_models();
  for (const auto& model : models) {
    const auto result = run_rw_mmt(cfg, *model, ell, k);
    const Duration extra_design = static_cast<Duration>(k) * ell;
    for (const Duration lr : latencies(result.ops, Operation::Kind::kRead)) {
      EXPECT_LE(lr, bound_read_clock(cfg) + 2 * cfg.eps + shift)
          << model->name();
    }
    for (const Duration lw : latencies(result.ops, Operation::Kind::kWrite)) {
      EXPECT_LE(lw, bound_write_clock(cfg) + extra_design + 2 * cfg.eps + shift)
          << model->name();
    }
  }
}

TEST(MmtPipelineTest, SmallerEllTightensLatency) {
  // The ell sweep of E6: max read latency grows with ell.
  RwRunConfig cfg = mmt_config();
  cfg.c = 0;
  const int k = cfg.num_nodes + 2;
  PerfectDrift drift;
  Duration prev_max = 0;
  std::vector<Duration> maxima;
  for (const Duration ell : {microseconds(1), microseconds(20),
                             microseconds(200)}) {
    Duration worst = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      cfg.seed = seed;
      const auto result = run_rw_mmt(cfg, drift, ell, k);
      for (const Duration lr : latencies(result.ops, Operation::Kind::kRead)) {
        worst = std::max(worst, lr);
      }
    }
    maxima.push_back(worst);
  }
  (void)prev_max;
  EXPECT_LT(maxima[0], maxima[2]);  // 200us steps cost more than 1us steps
}

}  // namespace
}  // namespace psc
