// Regression suite for the executor's calendar/dirty-set scheduler. The
// legacy polling loop (ExecutorOptions::legacy_scan) transcribes Def 2.2
// literally, so it is the reference: the default timing-wheel scheduler
// must be observationally identical to it — byte-identical TimedTraces and
// probe sequences for the same seed, on every shipped harness and on a run
// that drives the wheel through its stale-entry compaction. The interned
// routing must also raise the composition compatibility errors and handle
// hide() edge cases, and a multi-part machine (a clock node's members) must
// be re-polled part by part.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/flood.hpp"
#include "core/trace_io.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "runtime/clocked.hpp"
#include "runtime/composite.hpp"
#include "runtime/executor.hpp"
#include "runtime/script.hpp"
#include "runtime/system.hpp"
#include "rw/harness.hpp"
#include "rw/queue.hpp"
#include "transform/buffers.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

// Message uids come from a process-global counter; normalize them away so
// traces from separate runs are comparable byte-for-byte.
std::string normalized(const TimedTrace& events) {
  TimedTrace copy = events;
  std::map<std::uint64_t, std::uint64_t> remap;
  for (auto& e : copy) {
    if (!e.action.msg) continue;
    auto [it, fresh] = remap.emplace(e.action.msg->uid, remap.size() + 1);
    (void)fresh;
    e.action.msg->uid = it->second;
  }
  return trace_to_text(copy);
}

// Serializes the full probe callback sequence (events, time advances, run
// begin/end) so the two schedulers' observability contract can be compared.
class RecordingProbe final : public Probe {
 public:
  void on_run_begin(Time now) override { log_ << "begin " << now << "\n"; }
  void on_event(const TimedEvent& e, const Machine& owner) override {
    // Remap process-global message uids (as normalized() does for traces).
    TimedEvent copy = e;
    if (copy.action.msg) {
      auto [it, fresh] =
          remap_.emplace(copy.action.msg->uid, remap_.size() + 1);
      (void)fresh;
      copy.action.msg->uid = it->second;
    }
    log_ << "event " << to_string(copy.action) << " t=" << copy.time
         << " owner=" << owner.name() << " vis=" << copy.visible << "\n";
  }
  void on_time_advance(Time from, Time to) override {
    log_ << "advance " << from << " -> " << to << "\n";
  }
  void on_run_end(Time now) override { log_ << "end " << now << "\n"; }

  std::string text() const { return log_.str(); }

 private:
  std::map<std::uint64_t, std::uint64_t> remap_;
  std::ostringstream log_;
};

// The two scheduler arms under test, as ExecutorOptions::legacy_scan.
constexpr bool kWheel = false;
constexpr bool kLegacy = true;

const char* arm_name(bool legacy) { return legacy ? "legacy" : "wheel"; }

TimedTrace run_flood(const Graph& g, std::uint64_t seed, bool legacy,
                     Probe* probe, std::size_t* steps = nullptr) {
  Executor exec({.horizon = seconds(10),
                 .seed = seed,
                 .legacy_scan = legacy,
                 .probes = probe ? std::vector<Probe*>{probe}
                                 : std::vector<Probe*>{}});
  ChannelConfig cc;
  cc.d1 = microseconds(50);
  cc.d2 = microseconds(200);
  cc.seed = seed;
  add_timed_system(exec, g, cc,
                   make_flood_nodes(g, /*source=*/0, 0xf100d,
                                    /*hops_bound=*/g.n, cc.d2, 1));
  const auto report = exec.run();
  if (steps != nullptr) *steps = report.steps;
  return exec.events();
}

TEST(SchedulerEquivalence, FloodRingTracesMatchAcrossSchedulers) {
  for (std::uint64_t seed : {1u, 7u, 42u, 2024u}) {
    std::size_t steps_ref = 0;
    const auto ref =
        run_flood(Graph::ring(8), seed, kWheel, nullptr, &steps_ref);
    std::size_t steps = 0;
    const auto got = run_flood(Graph::ring(8), seed, kLegacy, nullptr, &steps);
    EXPECT_EQ(steps_ref, steps) << "seed " << seed;
    EXPECT_EQ(normalized(ref), normalized(got)) << "seed " << seed;
  }
}

TEST(SchedulerEquivalence, FloodCompleteGraphTracesMatchAcrossSchedulers) {
  for (std::uint64_t seed : {7u, 42u, 99u}) {
    const auto ref = run_flood(Graph::complete(6), seed, kWheel, nullptr);
    const auto got = run_flood(Graph::complete(6), seed, kLegacy, nullptr);
    EXPECT_EQ(normalized(ref), normalized(got)) << "seed " << seed;
  }
}

TEST(SchedulerEquivalence, ProbeSequencesMatchAcrossSchedulers) {
  RecordingProbe wheel;
  run_flood(Graph::ring(6), 42, kWheel, &wheel);
  EXPECT_FALSE(wheel.text().empty());
  RecordingProbe legacy;
  run_flood(Graph::ring(6), 42, kLegacy, &legacy);
  EXPECT_EQ(wheel.text(), legacy.text());
}

RwRunConfig rw_cfg(std::uint64_t seed, bool legacy) {
  RwRunConfig cfg;
  cfg.num_nodes = 3;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(250);
  cfg.eps = microseconds(40);
  cfg.c = microseconds(30);
  cfg.ops_per_node = 10;
  cfg.think_max = microseconds(300);
  cfg.horizon = seconds(5);
  cfg.seed = seed;
  cfg.legacy_scan = legacy;
  return cfg;
}

TEST(SchedulerEquivalence, RwTimedTracesMatchAcrossSchedulers) {
  for (std::uint64_t seed : {7u, 42u, 99u}) {
    const auto ref = run_rw_timed(rw_cfg(seed, kWheel));
    const auto got = run_rw_timed(rw_cfg(seed, kLegacy));
    EXPECT_EQ(normalized(ref.events), normalized(got.events))
        << "seed " << seed;
  }
}

// The clock-model drifts the equivalence tests sweep: ZigzagDrift(0.3),
// then every standard_drift_models() model. Clock nodes are scheduled part
// by part, which relies on a part's enabled set changing only when the part
// is touched or its own hint comes due; the legacy scan polls whole nodes,
// so these runs check that rule under every clock shape.
std::vector<std::unique_ptr<DriftModel>> equivalence_drifts() {
  std::vector<std::unique_ptr<DriftModel>> out;
  out.push_back(std::make_unique<ZigzagDrift>(0.3));
  for (auto& model : standard_drift_models()) out.push_back(std::move(model));
  return out;
}

TEST(SchedulerEquivalence, RwClockTracesMatchAcrossSchedulers) {
  for (const auto& drift : equivalence_drifts()) {
    for (std::uint64_t seed : {7u, 42u, 99u}) {
      const auto ref = run_rw_clock(rw_cfg(seed, kWheel), *drift);
      const auto got = run_rw_clock(rw_cfg(seed, kLegacy), *drift);
      EXPECT_EQ(normalized(ref.events), normalized(got.events))
          << drift->name() << " seed " << seed;
    }
  }
}

TEST(SchedulerEquivalence, RwMmtTracesMatchAcrossSchedulers) {
  PerfectDrift drift;
  for (std::uint64_t seed : {7u, 42u, 99u}) {
    const auto ref =
        run_rw_mmt(rw_cfg(seed, kWheel), drift, microseconds(10), 5);
    const auto got =
        run_rw_mmt(rw_cfg(seed, kLegacy), drift, microseconds(10), 5);
    EXPECT_EQ(normalized(ref.events), normalized(got.events))
        << "seed " << seed;
  }
}

// The bound-slack observatory is part of the schedulers' observability
// contract: for the same seed both scheduler arms must report identical
// min-slack summaries, not just identical traces.
TEST(SchedulerEquivalence, SlackSummariesMatchAcrossSchedulers) {
  struct SlackRun {
    RwRunResult result;
    MetricsRegistry registry;
  };
  auto run = [](bool legacy) {
    auto out = std::make_unique<SlackRun>();
    ObsOptions oo;
    oo.registry = &out->registry;
    oo.slack = true;
    RwRunConfig cfg = rw_cfg(42, legacy);
    cfg.obs = &oo;
    ZigzagDrift drift(0.3);
    out->result = run_rw_clock(cfg, drift);
    return out;
  };

  const auto ref = run(kWheel);
  const auto& a = ref->result;
  ASSERT_LT(a.min_slack, kTimeMax);  // the observatory measured something
  EXPECT_GE(a.min_slack, 0);
  const auto alt = run(kLegacy);
  const auto& b = alt->result;
  EXPECT_EQ(a.min_slack, b.min_slack);
  EXPECT_EQ(a.min_slack_ceps, b.min_slack_ceps);
  EXPECT_EQ(a.min_slack_delivery, b.min_slack_delivery);
  EXPECT_EQ(a.min_slack_thm47, b.min_slack_thm47);
  EXPECT_EQ(a.min_slack_mmt, b.min_slack_mmt);
  EXPECT_EQ(a.slack_violations, b.slack_violations);

  // The aggregate histograms agree sample-for-sample, too.
  for (const char* name :
       {"slack.ceps_ns", "slack.delivery_ns", "slack.thm47_ns"}) {
    const Histogram* ha = ref->registry.find_histogram(name);
    const Histogram* hb = alt->registry.find_histogram(name);
    ASSERT_NE(ha, nullptr) << name;
    ASSERT_NE(hb, nullptr) << name;
    EXPECT_EQ(ha->count(), hb->count()) << name;
    EXPECT_EQ(ha->sum(), hb->sum()) << name;
    EXPECT_EQ(ha->buckets(), hb->buckets()) << name;
  }
}

TEST(SchedulerEquivalence, QueueClockTracesMatchAcrossSchedulers) {
  auto run = [](std::uint64_t seed, bool legacy, const DriftModel& drift) {
    QueueRunConfig qc;
    qc.num_nodes = 3;
    qc.d1 = microseconds(20);
    qc.d2 = microseconds(250);
    qc.eps = microseconds(40);
    qc.ops_per_node = 8;
    qc.think_max = microseconds(300);
    qc.horizon = seconds(5);
    qc.seed = seed;
    qc.legacy_scan = legacy;
    return run_queue_clock(qc, drift);
  };
  for (const auto& drift : equivalence_drifts()) {
    for (std::uint64_t seed : {7u, 11u, 42u}) {
      const auto ref = run(seed, kWheel, *drift);
      const auto got = run(seed, kLegacy, *drift);
      EXPECT_EQ(normalized(ref.events), normalized(got.events))
          << drift->name() << " seed " << seed;
    }
  }
}

// --- wheel compaction --------------------------------------------------------

// Works through batches of jobs: every job due by now is enabled, one JOB
// output at a time. Its next_enabled hint sits at the next batch, far in
// the future, while it works through the current one, so each of its
// re-polls at one instant files a fresh wake entry and stales the previous
// one.
class Batcher final : public Machine {
 public:
  Batcher(int node, Time first, Duration period, int batches, int jobs)
      : Machine("batcher" + std::to_string(node)), node_(node) {
    for (int b = 0; b < batches; ++b) {
      due_.insert(due_.end(), static_cast<std::size_t>(jobs),
                  first + b * period);
    }
  }
  void declare_signature(SignatureDecl& decl) const override {
    decl.output("JOB", node_);
  }
  void apply_input(const Action&, Time) override {}
  std::vector<Action> enabled(Time t) const override {
    if (next_ == due_.size() || due_[next_] > t) return {};
    const Value job{static_cast<std::int64_t>(next_)};
    return {make_action("JOB", node_, {job})};
  }
  void apply_local(const Action&, Time) override { ++next_; }
  Time upper_bound(Time) const override {
    return next_ == due_.size() ? kTimeMax : due_[next_];
  }
  Time next_enabled(Time t) const override {
    const auto first = due_.begin() + static_cast<std::ptrdiff_t>(next_);
    const auto it = std::upper_bound(first, due_.end(), t);
    return it == due_.end() ? kTimeMax : *it;
  }

 private:
  int node_;
  std::vector<Time> due_;  // ascending
  std::size_t next_ = 0;
};

struct BatchRun {
  TimedTrace events;
  std::string probes;
  ExecutorStats stats;
};

// Batchers 0 and 1 share batch times, so the adversary interleaves their
// jobs (the seed matters) and their 80 re-polls at one instant overflow the
// 4 * 3 + 64 entry backstop, while batcher 2 idles on a valid hint that the
// compaction must keep. Its batches land 37us later, inside the same coarse
// wheel slot, so each advance to a shared batch re-files them a level down.
BatchRun run_batches(std::uint64_t seed, bool legacy) {
  RecordingProbe probe;
  Executor exec({.horizon = seconds(1),
                 .seed = seed,
                 .legacy_scan = legacy,
                 .probes = {&probe}});
  for (int node = 0; node < 3; ++node) {
    exec.add_owned(std::make_unique<Batcher>(
        node, microseconds(node == 2 ? 1037 : 1000), milliseconds(1),
        /*batches=*/4, /*jobs=*/40));
  }
  const auto report = exec.run();
  EXPECT_TRUE(report.quiesced);
  return {exec.events(), probe.text(), report.stats};
}

TEST(SchedulerEquivalence, WheelCompactionRunsMatchLegacy) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const BatchRun wheel = run_batches(seed, kWheel);
    EXPECT_GT(wheel.stats.wheel.compactions, 0u) << "seed " << seed;
    EXPECT_GT(wheel.stats.wheel.cascades, 0u) << "seed " << seed;
    EXPECT_EQ(wheel.events.size(), 3u * 4u * 40u) << "seed " << seed;
    const BatchRun legacy = run_batches(seed, kLegacy);
    EXPECT_EQ(normalized(wheel.events), normalized(legacy.events))
        << "seed " << seed;
    EXPECT_EQ(wheel.probes, legacy.probes) << "seed " << seed;
  }
}

// --- multi-part machines ----------------------------------------------------

// A wheel that holds only live entries must never be compacted: the
// backstop threshold counts scheduler slots (one per part), not machines.
// One composite of 100 one-job Batchers is one machine with 100 parts, each
// holding a live wake entry until its job comes due.
TEST(SchedulerParts, WheelHoldingOnlyLiveEntriesNeverCompacts) {
  auto run = [](bool legacy) {
    RecordingProbe probe;
    Executor exec({.horizon = seconds(1),
                   .seed = 3,
                   .legacy_scan = legacy,
                   .probes = {&probe}});
    auto alarms = std::make_unique<CompositeMachine>("alarms");
    for (int k = 0; k < 100; ++k) {
      alarms->add(std::make_unique<Batcher>(k, microseconds(k + 1),
                                            milliseconds(1), /*batches=*/1,
                                            /*jobs=*/1));
    }
    exec.add_owned(std::move(alarms));
    const auto report = exec.run();
    EXPECT_TRUE(report.quiesced);
    return BatchRun{exec.events(), probe.text(), report.stats};
  };
  const BatchRun wheel = run(kWheel);
  EXPECT_EQ(wheel.events.size(), 100u);
  EXPECT_EQ(wheel.stats.wheel.compactions, 0u);
  const BatchRun legacy = run(kLegacy);
  EXPECT_EQ(normalized(wheel.events), normalized(legacy.events));
  EXPECT_EQ(wheel.probes, legacy.probes);
}

// Forwards everything to `inner` and counts the polls the executor makes of
// it (enabled, next_enabled, upper_bound).
class CountingPart final : public Machine {
 public:
  explicit CountingPart(std::unique_ptr<Machine> inner)
      : Machine(inner->name()), inner_(std::move(inner)) {}
  void declare_signature(SignatureDecl& decl) const override {
    inner_->declare_signature(decl);
  }
  void apply_input(const Action& a, Time t) override {
    inner_->apply_input(a, t);
  }
  std::vector<Action> enabled(Time t) const override {
    ++polls_;
    return inner_->enabled(t);
  }
  void apply_local(const Action& a, Time t) override {
    inner_->apply_local(a, t);
  }
  Time upper_bound(Time t) const override {
    ++polls_;
    return inner_->upper_bound(t);
  }
  Time next_enabled(Time t) const override {
    ++polls_;
    return inner_->next_enabled(t);
  }
  std::size_t polls() const { return polls_; }

 private:
  std::unique_ptr<Machine> inner_;
  mutable std::size_t polls_ = 0;
};

// Snapshots every member's poll count and the executor's re-poll counter
// when the buffer input is recorded, and again when the buffer releases it.
class PollWindowProbe final : public Probe {
 public:
  PollWindowProbe(const Executor& exec,
                  std::vector<const CountingPart*> members)
      : exec_(exec), members_(std::move(members)) {}
  void on_event(const TimedEvent& e, const Machine&) override {
    if (e.action.name == "ERECVMSG") {
      at_input_ = snapshot();
    } else if (e.action.name == "RECVMSG") {
      at_release_ = snapshot();
    }
  }
  struct Snapshot {
    std::vector<std::size_t> polls;
    std::uint64_t repolls = 0;
  };
  const Snapshot& at_input() const { return at_input_; }
  const Snapshot& at_release() const { return at_release_; }

 private:
  Snapshot snapshot() const {
    Snapshot s;
    for (const CountingPart* m : members_) s.polls.push_back(m->polls());
    s.repolls = exec_.stats().dirty_repolls;
    return s;
  }
  const Executor& exec_;
  std::vector<const CountingPart*> members_;
  Snapshot at_input_;
  Snapshot at_release_;
};

// One ERECVMSG into one Simulation 1 node (the algorithm, a send buffer and
// two receive buffers under a clock adapter) re-polls only the receive
// buffer it fed: at the flush after the input and when the buffer's hold
// expires. The algorithm and the other buffers are not polled until the
// release routes RECVMSG on, although the node is one executor machine.
TEST(SchedulerParts, BufferInputRepollsOnlyThatBuffersPart) {
  Executor exec({.horizon = seconds(1)});
  auto node = std::make_unique<CompositeMachine>("A^c_0");
  auto algorithm = std::make_unique<ScriptMachine>(
      "alg0", std::vector<ScriptMachine::Step>{});
  algorithm->accept_kind("RECVMSG", 0, 1);
  algorithm->accept_kind("RECVMSG", 0, 2);
  std::vector<std::unique_ptr<Machine>> members;
  members.push_back(std::move(algorithm));
  members.push_back(std::make_unique<SendBuffer>(0, 1));
  members.push_back(std::make_unique<ReceiveBuffer>(1, 0));
  members.push_back(std::make_unique<ReceiveBuffer>(2, 0));
  std::vector<const CountingPart*> counted;
  for (auto& m : members) {
    auto c = std::make_unique<CountingPart>(std::move(m));
    counted.push_back(c.get());
    node->add(std::move(c));
  }
  node->hide("SENDMSG");
  node->hide("RECVMSG");
  exec.add_owned(std::make_unique<ClockedMachine>(
      std::move(node),
      std::make_shared<const ClockTrajectory>(ClockTrajectory::perfect())));
  // The message arrives at clock 100us tagged 300us, so R_1,0 holds it
  // until its hint comes due at 300us.
  Message msg = make_message("UPDATE");
  msg.clock_tag = microseconds(300);
  exec.add_owned(std::make_unique<ScriptMachine>(
      "env", std::vector<ScriptMachine::Step>{
                 {microseconds(100), make_recv(0, 1, msg, "ERECVMSG")}}));
  PollWindowProbe probe(exec, counted);
  exec.attach_probe(&probe);
  exec.run();

  const auto& in = probe.at_input();
  const auto& out = probe.at_release();
  ASSERT_EQ(in.polls.size(), 4u);
  ASSERT_EQ(out.polls.size(), 4u);
  // R_1,0: one flush after the input, one wake at 300us, three calls each.
  EXPECT_EQ(out.polls[2] - in.polls[2], 6u);
  for (std::size_t k : {0u, 1u, 3u}) {
    EXPECT_EQ(out.polls[k], in.polls[k]) << counted[k]->name();
  }
  // The re-polls counted: the env's slot and R_1,0's after the input, then
  // R_1,0's at the wake.
  EXPECT_EQ(out.repolls - in.repolls, 3u);
}

// --- composition-compatibility and hide() edge cases ----------------------

// A declared machine that emits one "X" output at node 0 and stops.
class DeclaredEmitter final : public Machine {
 public:
  explicit DeclaredEmitter(std::string name) : Machine(std::move(name)) {}
  void declare_signature(SignatureDecl& decl) const override {
    decl.output("X", 0);
  }
  void apply_input(const Action&, Time) override {}
  std::vector<Action> enabled(Time) const override {
    if (done_) return {};
    return {make_action("X", 0)};
  }
  void apply_local(const Action&, Time) override { done_ = true; }

 private:
  bool done_ = false;
};

TEST(SchedulerRouting, TwoDeclaredClaimantsTripIncompatibleComposition) {
  Executor exec({.horizon = seconds(1)});
  exec.add_owned(std::make_unique<DeclaredEmitter>("a"));
  exec.add_owned(std::make_unique<DeclaredEmitter>("b"));
  EXPECT_THROW(exec.run(), CheckError);
}

TEST(SchedulerRouting, HideOfNeverDeclaredActionIsNoOp) {
  Executor exec({.horizon = seconds(1)});
  exec.add_owned(std::make_unique<DeclaredEmitter>("a"));
  exec.hide("NEVER_EMITTED");
  const auto report = exec.run();
  EXPECT_EQ(report.steps, 1u);
  ASSERT_EQ(exec.trace().size(), 1u);
  EXPECT_EQ(exec.trace()[0].action.name, "X");
}

TEST(SchedulerRouting, HideAfterAddStillAppliesToInternedKinds) {
  Executor exec({.horizon = seconds(1)});
  exec.add_owned(std::make_unique<DeclaredEmitter>("a"));
  exec.hide("X");  // assemblies hide after add(); must reclassify
  exec.run();
  EXPECT_EQ(exec.events().size(), 1u);
  EXPECT_TRUE(exec.trace().empty());  // hidden => invisible
}

// --- event-cap semantics (ExecutorReport::hit_event_cap) ------------------

class Spinner final : public Machine {
 public:
  Spinner() : Machine("spinner") {}
  void declare_signature(SignatureDecl& decl) const override {
    decl.internal("SPIN");
  }
  void apply_input(const Action&, Time) override {}
  std::vector<Action> enabled(Time) const override {
    return {make_action("SPIN", kNoNode)};
  }
  void apply_local(const Action&, Time) override {}
};

TEST(SchedulerCap, CapWithStopConditionReportsInsteadOfThrowing) {
  for (bool legacy : {kWheel, kLegacy}) {
    Executor exec(
        {.horizon = seconds(1), .max_events = 100, .legacy_scan = legacy});
    exec.add_owned(std::make_unique<Spinner>());
    exec.stop_when([] { return false; });  // never fires; cap wins the race
    const auto report = exec.run();
    EXPECT_TRUE(report.hit_event_cap) << arm_name(legacy);
    EXPECT_EQ(report.steps, 100u) << arm_name(legacy);
    EXPECT_FALSE(report.quiesced) << arm_name(legacy);
  }
}

TEST(SchedulerCap, CapWithoutStopConditionStillThrows) {
  for (bool legacy : {kWheel, kLegacy}) {
    Executor exec(
        {.horizon = seconds(1), .max_events = 100, .legacy_scan = legacy});
    exec.add_owned(std::make_unique<Spinner>());
    EXPECT_THROW(exec.run(), CheckError) << arm_name(legacy);
  }
}

TEST(SchedulerCap, NormalRunDoesNotReportCap) {
  Executor exec({.horizon = seconds(1)});
  exec.add_owned(std::make_unique<DeclaredEmitter>("a"));
  const auto report = exec.run();
  EXPECT_FALSE(report.hit_event_cap);
  EXPECT_TRUE(report.quiesced);
}

// --- probes stored once (options vs attach_probe) -------------------------

TEST(SchedulerProbes, OptionsAndAttachLandInOneList) {
  RecordingProbe from_options;
  RecordingProbe attached;
  Executor exec({.horizon = seconds(1),
                 .probes = {&from_options}});
  exec.attach_probe(&attached);
  exec.add_owned(std::make_unique<DeclaredEmitter>("a"));
  exec.run();
  // Both probes observe the identical sequence: one event, one run.
  EXPECT_EQ(from_options.text(), attached.text());
  EXPECT_NE(from_options.text().find("event X"), std::string::npos);
}

}  // namespace
}  // namespace psc
