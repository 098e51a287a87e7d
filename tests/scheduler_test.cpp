// Regression suite for the executor's calendar/dirty-set scheduler. The
// Def 2.2 reference loop (tests/support/reference_loop.hpp) transcribes
// composition literally, so the timing-wheel scheduler behind
// Executor::run() must be observationally identical to it — byte-identical
// TimedTraces and probe sequences for the same seed, on every shipped
// harness and on runs that re-poll slots many times before their wakes
// come due. The wake calendar holds one entry per slot per wheel and none
// for a slot with candidates, and an inert input (an MMT node's TICK) is
// not re-polled. The interned routing must also raise the composition
// compatibility errors and handle hide() edge cases, and a multi-part
// machine (a clock node's members) must be re-polled part by part.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/flood.hpp"
#include "core/trace_io.hpp"
#include "mmt/mmt_system.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/probe.hpp"
#include "runtime/clocked.hpp"
#include "runtime/composite.hpp"
#include "runtime/executor.hpp"
#include "runtime/script.hpp"
#include "runtime/system.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "rw/harness.hpp"
#include "rw/queue.hpp"
#include "support/reference_loop.hpp"
#include "transform/buffers.hpp"
#include "transform/clock_system.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

// Serializes the full probe callback sequence (events, time advances, run
// begin/end) so the two schedulers' observability contract can be compared.
class RecordingProbe final : public Probe {
 public:
  void on_run_begin(Time now) override { log_ << "begin " << now << "\n"; }
  void on_event(const TimedEvent& e, const Machine& owner) override {
    // Remap process-global message uids (as normalize_uids does for traces).
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

// The two scheduler loops under test.
enum class Loop { kWheel, kReference };
constexpr Loop kLoops[] = {Loop::kWheel, Loop::kReference};

const char* loop_name(Loop loop) {
  return loop == Loop::kWheel ? "wheel" : "reference";
}

ExecutorReport run_on(Executor& exec, Loop loop) {
  return loop == Loop::kWheel ? exec.run() : run_reference(exec);
}

TimedTrace run_flood(const Graph& g, std::uint64_t seed, Loop loop,
                     Probe* probe, std::size_t* steps = nullptr) {
  Executor exec({.horizon = seconds(10),
                 .seed = seed,
                 .probes = probe ? std::vector<Probe*>{probe}
                                 : std::vector<Probe*>{}});
  ChannelConfig cc;
  cc.d1 = microseconds(50);
  cc.d2 = microseconds(200);
  cc.seed = seed;
  add_timed_system(exec, g, cc,
                   make_flood_nodes(g, /*source=*/0, 0xf100d,
                                    /*hops_bound=*/g.n, cc.d2, 1));
  const auto report = run_on(exec, loop);
  if (steps != nullptr) *steps = report.steps;
  return exec.events();
}

TEST(SchedulerEquivalence, FloodRingTracesMatchAcrossSchedulers) {
  for (std::uint64_t seed : {1u, 7u, 42u, 2024u}) {
    std::size_t steps_ref = 0;
    const auto ref =
        run_flood(Graph::ring(8), seed, Loop::kWheel, nullptr, &steps_ref);
    std::size_t steps = 0;
    const auto got =
        run_flood(Graph::ring(8), seed, Loop::kReference, nullptr, &steps);
    EXPECT_EQ(steps_ref, steps) << "seed " << seed;
    EXPECT_EQ(trace_to_text(normalize_uids(ref)),
              trace_to_text(normalize_uids(got)))
        << "seed " << seed;
  }
}

TEST(SchedulerEquivalence, FloodCompleteGraphTracesMatchAcrossSchedulers) {
  for (std::uint64_t seed : {7u, 42u, 99u}) {
    const auto ref =
        run_flood(Graph::complete(6), seed, Loop::kWheel, nullptr);
    const auto got =
        run_flood(Graph::complete(6), seed, Loop::kReference, nullptr);
    EXPECT_EQ(trace_to_text(normalize_uids(ref)),
              trace_to_text(normalize_uids(got)))
        << "seed " << seed;
  }
}

RwRunConfig rw_cfg(std::uint64_t seed) {
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
  return cfg;
}

// --- harness twins --------------------------------------------------------

// The harnesses build, run and drop their executor in one call, so the
// harness-level equivalence tests assemble each system themselves through
// the public builders, exactly as run_rw_timed / run_rw_clock / run_rw_mmt
// / run_queue_clock do (same parameters, seeds and add() order, no probes
// unless a test attaches one), and run one copy per loop. Every test
// checks each copy's trace against the harness's own run, which pins the
// twin to the harness assembly.
enum class RwModel { kTimed, kClock, kMmt };

// run_rw_mmt's step/tick bound and output-rate constant in these tests.
constexpr Duration kMmtEll = microseconds(10);
constexpr int kMmtK = 5;

std::vector<std::shared_ptr<const ClockTrajectory>> twin_trajectories(
    int num_nodes, Duration eps, Time horizon, std::uint64_t seed,
    const DriftModel& drift) {
  std::vector<std::shared_ptr<const ClockTrajectory>> out;
  Rng seeder(seed ^ 0xc1c1c1c1ULL);
  for (int i = 0; i < num_nodes; ++i) {
    Rng r = seeder.split();
    out.push_back(std::make_shared<ClockTrajectory>(
        drift.generate(eps, horizon, r)));
  }
  return out;
}

// `drift` is unused in the timed model.
std::unique_ptr<Executor> assemble_rw(const RwRunConfig& cfg, RwModel model,
                                      const DriftModel& drift) {
  auto twin = std::make_unique<Executor>(
      ExecutorOptions{.horizon = cfg.horizon, .seed = cfg.seed});
  Executor& exec = *twin;
  std::vector<RwClient*> clients;
  ClientOptions co;
  co.num_ops = cfg.ops_per_node;
  co.think_min = cfg.think_min;
  co.think_max = cfg.think_max;
  co.write_fraction = cfg.write_fraction;
  for (auto& c :
       make_clients(cfg.num_nodes, co, cfg.seed ^ 0xc7, &clients)) {
    exec.add_owned(std::move(c));
  }
  RwParams p;
  p.num_nodes = cfg.num_nodes;
  p.c = cfg.c;
  p.delta = cfg.delta;
  p.d2_prime = model == RwModel::kTimed   ? cfg.d2
               : model == RwModel::kClock ? timed_d2(cfg.d2, cfg.eps)
                                          : mmt_d2(cfg.d2, cfg.eps, kMmtK,
                                                   kMmtEll);
  p.two_eps = cfg.super ? 2 * cfg.eps : 0;
  p.v0 = cfg.v0;
  auto algos = make_rw_algorithms(cfg.num_nodes, p);
  const Graph g = Graph::complete_with_self_loops(cfg.num_nodes);
  ChannelConfig cc;
  cc.d1 = cfg.d1;
  cc.d2 = cfg.d2;
  cc.seed = cfg.seed ^ 0xe5e5;
  if (model == RwModel::kTimed) {
    add_timed_system(exec, g, cc, std::move(algos));
    return twin;
  }
  const auto trajs = twin_trajectories(cfg.num_nodes, cfg.eps, cfg.horizon,
                                       cfg.seed, drift);
  if (model == RwModel::kClock) {
    add_clock_system(exec, g, cc, std::move(algos), trajs);
    return twin;
  }
  MmtConfig mc;
  mc.ell = kMmtEll;
  mc.seed = cfg.seed ^ 0x4d4d54;
  add_mmt_system(exec, g, cc, std::move(algos), trajs, mc);
  exec.stop_when([clients] {
    return std::all_of(clients.begin(), clients.end(),
                       [](const RwClient* c) { return c->finished(); });
  });
  return twin;
}

// The harness's own run of the same system, on Executor::run().
RwRunResult run_rw_harness(const RwRunConfig& cfg, RwModel model,
                           const DriftModel& drift) {
  if (model == RwModel::kTimed) return run_rw_timed(cfg);
  if (model == RwModel::kClock) return run_rw_clock(cfg, drift);
  return run_rw_mmt(cfg, drift, kMmtEll, kMmtK);
}

// Runs the harness once and a twin on each loop; every twin's normalized
// trace must equal the harness's.
void expect_rw_twins_match(const RwRunConfig& cfg, RwModel model,
                           const DriftModel& drift, const std::string& what) {
  const std::string harness =
      trace_to_text(normalize_uids(run_rw_harness(cfg, model, drift).events));
  for (const Loop loop : kLoops) {
    const auto twin = assemble_rw(cfg, model, drift);
    run_on(*twin, loop);
    EXPECT_EQ(trace_to_text(normalize_uids(twin->events())), harness)
        << what << " on " << loop_name(loop);
  }
}

TEST(SchedulerEquivalence, ProbeSequencesMatchAcrossSchedulers) {
  RecordingProbe wheel;
  run_flood(Graph::ring(6), 42, Loop::kWheel, &wheel);
  EXPECT_FALSE(wheel.text().empty());
  RecordingProbe reference;
  run_flood(Graph::ring(6), 42, Loop::kReference, &reference);
  EXPECT_EQ(wheel.text(), reference.text());

  // The part-by-part Simulation 1 nodes (clock model) and the MMT
  // tick/step machinery, under a drifting clock.
  const ZigzagDrift drift(0.3);
  for (const RwModel model : {RwModel::kClock, RwModel::kMmt}) {
    RecordingProbe probes[2];
    for (const Loop loop : kLoops) {
      const auto twin = assemble_rw(rw_cfg(42), model, drift);
      RecordingProbe& probe = probes[static_cast<int>(loop)];
      twin->attach_probe(&probe);
      run_on(*twin, loop);
    }
    const char* what = model == RwModel::kClock ? "rw-clock" : "rw-mmt";
    EXPECT_NE(probes[0].text().find("event ERECVMSG"), std::string::npos)
        << what;
    EXPECT_EQ(probes[0].text(), probes[1].text()) << what;
  }
}

TEST(SchedulerEquivalence, RwTimedTracesMatchAcrossSchedulers) {
  const PerfectDrift unused;
  for (std::uint64_t seed : {7u, 42u, 99u}) {
    expect_rw_twins_match(rw_cfg(seed), RwModel::kTimed, unused,
                          "seed " + std::to_string(seed));
  }
}

// The clock-model drifts the equivalence tests sweep: ZigzagDrift(0.3),
// then every standard_drift_models() model. Clock nodes are scheduled part
// by part, which relies on a part's enabled set changing only when the part
// is touched or its own hint comes due; the reference loop polls whole
// nodes, so these runs check that rule under every clock shape.
std::vector<std::unique_ptr<DriftModel>> equivalence_drifts() {
  std::vector<std::unique_ptr<DriftModel>> out;
  out.push_back(std::make_unique<ZigzagDrift>(0.3));
  for (auto& model : standard_drift_models()) out.push_back(std::move(model));
  return out;
}

TEST(SchedulerEquivalence, RwClockTracesMatchAcrossSchedulers) {
  for (const auto& drift : equivalence_drifts()) {
    for (std::uint64_t seed : {7u, 42u, 99u}) {
      expect_rw_twins_match(rw_cfg(seed), RwModel::kClock, *drift,
                            drift->name() + " seed " + std::to_string(seed));
    }
  }
}

TEST(SchedulerEquivalence, RwMmtTracesMatchAcrossSchedulers) {
  const PerfectDrift drift;
  for (std::uint64_t seed : {7u, 42u, 99u}) {
    expect_rw_twins_match(rw_cfg(seed), RwModel::kMmt, drift,
                          "seed " + std::to_string(seed));
  }
}

// The bound-slack observatory is part of the schedulers' observability
// contract: for the same seed both loops must report the min-slack
// summaries the harness reports, not just identical traces.
TEST(SchedulerEquivalence, SlackSummariesMatchAcrossSchedulers) {
  const RwRunConfig base = rw_cfg(42);
  const ZigzagDrift drift(0.3);
  MetricsRegistry harness_registry;
  ObsOptions oo;
  oo.registry = &harness_registry;
  oo.slack = true;
  RwRunConfig cfg = base;
  cfg.obs = &oo;
  const RwRunResult a = run_rw_clock(cfg, drift);
  ASSERT_LT(a.min_slack, kTimeMax);  // the observatory measured something
  EXPECT_GE(a.min_slack, 0);

  for (const Loop loop : kLoops) {
    // The probe run_rw_clock attaches, with the same model parameters.
    MetricsRegistry registry;
    BoundSlackProbe b(registry,
                      {.eps = base.eps, .d1 = base.d1, .d2 = base.d2});
    const auto twin = assemble_rw(base, RwModel::kClock, drift);
    twin->attach_probe(&b);
    run_on(*twin, loop);
    const char* what = loop_name(loop);
    EXPECT_EQ(a.min_slack, b.min_slack()) << what;
    EXPECT_EQ(a.min_slack_ceps, b.min_ceps()) << what;
    EXPECT_EQ(a.min_slack_delivery, b.min_delivery()) << what;
    EXPECT_EQ(a.min_slack_thm47, b.min_thm47()) << what;
    EXPECT_EQ(a.min_slack_mmt, b.min_mmt()) << what;
    EXPECT_EQ(a.slack_violations, b.violations()) << what;

    // The aggregate histograms agree sample-for-sample, too.
    for (const char* name :
         {"slack.ceps_ns", "slack.delivery_ns", "slack.thm47_ns"}) {
      const Histogram* ha = harness_registry.find_histogram(name);
      const Histogram* hb = registry.find_histogram(name);
      ASSERT_NE(ha, nullptr) << name;
      ASSERT_NE(hb, nullptr) << name << " " << what;
      EXPECT_EQ(ha->count(), hb->count()) << name << " " << what;
      EXPECT_EQ(ha->sum(), hb->sum()) << name << " " << what;
      EXPECT_EQ(ha->buckets(), hb->buckets()) << name << " " << what;
    }
  }
}

TEST(SchedulerEquivalence, QueueClockTracesMatchAcrossSchedulers) {
  auto config = [](std::uint64_t seed) {
    QueueRunConfig qc;
    qc.num_nodes = 3;
    qc.d1 = microseconds(20);
    qc.d2 = microseconds(250);
    qc.eps = microseconds(40);
    qc.ops_per_node = 8;
    qc.think_max = microseconds(300);
    qc.horizon = seconds(5);
    qc.seed = seed;
    return qc;
  };
  // run_queue_clock's assembly.
  auto assemble = [](const QueueRunConfig& qc, const DriftModel& drift) {
    auto exec = std::make_unique<Executor>(
        ExecutorOptions{.horizon = qc.horizon, .seed = qc.seed});
    Rng seeder(qc.seed ^ 0x9c);
    for (int i = 0; i < qc.num_nodes; ++i) {
      QueueClient::Options o;
      o.node = i;
      o.num_ops = qc.ops_per_node;
      o.enq_fraction = qc.enq_fraction;
      o.think_min = qc.think_min;
      o.think_max = qc.think_max;
      o.seed = seeder.next();
      exec->add_owned(std::make_unique<QueueClient>(o));
    }
    ChannelConfig cc;
    cc.d1 = qc.d1;
    cc.d2 = qc.d2;
    cc.seed = qc.seed ^ 0x55;
    add_clock_system(*exec, Graph::complete_with_self_loops(qc.num_nodes), cc,
                     make_queue_nodes(qc.num_nodes,
                                      timed_d2(qc.d2, qc.eps), qc.delta),
                     twin_trajectories(qc.num_nodes, qc.eps, qc.horizon,
                                       qc.seed, drift));
    return exec;
  };
  for (const auto& drift : equivalence_drifts()) {
    for (std::uint64_t seed : {7u, 11u, 42u}) {
      const QueueRunConfig qc = config(seed);
      const std::string harness =
          trace_to_text(normalize_uids(run_queue_clock(qc, *drift).events));
      for (const Loop loop : kLoops) {
        const auto exec = assemble(qc, *drift);
        run_on(*exec, loop);
        EXPECT_EQ(trace_to_text(normalize_uids(exec->events())), harness)
            << drift->name() << " seed " << seed << " on "
            << loop_name(loop);
      }
    }
  }
}

// --- the wake calendar ------------------------------------------------------

// Works through batches of jobs: every job due by now is enabled, one JOB
// output at a time. Its next_enabled hint sits at the next batch, far in
// the future, while it works through the current one, so it is re-polled
// many times at one instant with a wake it must not file.
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

// The largest entry count each wake wheel held at any event or time
// advance, on the wheel loop (the reference loop files no wakes).
class WakeWatch final : public Probe {
 public:
  explicit WakeWatch(const Executor& exec) : exec_(exec) {}
  void on_event(const TimedEvent&, const Machine&) override { watch(); }
  void on_time_advance(Time, Time) override { watch(); }
  std::size_t max_ne() const { return max_ne_; }
  std::size_t max_ub() const { return max_ub_; }

 private:
  void watch() {
    const auto [ne, ub] = exec_.wake_entries();
    max_ne_ = std::max(max_ne_, ne);
    max_ub_ = std::max(max_ub_, ub);
  }
  const Executor& exec_;
  std::size_t max_ne_ = 0;
  std::size_t max_ub_ = 0;
};

struct BatchRun {
  TimedTrace events;
  std::string probes;
  ExecutorStats stats;
  std::size_t max_ne = 0;
  std::size_t max_ub = 0;
};

// Batchers 0 and 1 share batch times, so the adversary interleaves their
// jobs (the seed matters) and re-polls them 80 times at one instant, while
// batcher 2 idles on a wake the wheel must keep. Its batches land 37us
// later, inside the same coarse wheel slot, so each advance to a shared
// batch re-files them a level down.
BatchRun run_batches(std::uint64_t seed, Loop loop) {
  RecordingProbe probe;
  Executor exec({.horizon = seconds(1), .seed = seed, .probes = {&probe}});
  WakeWatch wakes(exec);
  exec.attach_probe(&wakes);
  for (int node = 0; node < 3; ++node) {
    exec.add_owned(std::make_unique<Batcher>(
        node, microseconds(node == 2 ? 1037 : 1000), milliseconds(1),
        /*batches=*/4, /*jobs=*/40));
  }
  const auto report = run_on(exec, loop);
  EXPECT_TRUE(report.quiesced);
  return {exec.events(), probe.text(), report.stats, wakes.max_ne(),
          wakes.max_ub()};
}

TEST(SchedulerEquivalence, BatcherRunsMatchReference) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const BatchRun wheel = run_batches(seed, Loop::kWheel);
    // Three slots: the wheels never hold more than one entry per slot.
    EXPECT_GT(wheel.max_ne, 0u) << "seed " << seed;
    EXPECT_LE(wheel.max_ne, 3u) << "seed " << seed;
    EXPECT_LE(wheel.max_ub, 3u) << "seed " << seed;
    EXPECT_EQ(wheel.stats.wheel.stale_drops, 0u) << "seed " << seed;
    EXPECT_GT(wheel.stats.wheel.cascades, 0u) << "seed " << seed;
    EXPECT_EQ(wheel.events.size(), 3u * 4u * 40u) << "seed " << seed;
    const BatchRun reference = run_batches(seed, Loop::kReference);
    EXPECT_EQ(trace_to_text(normalize_uids(wheel.events)),
              trace_to_text(normalize_uids(reference.events)))
        << "seed " << seed;
    EXPECT_EQ(wheel.probes, reference.probes) << "seed " << seed;
  }
}

// Counts, on the wheel loop, the dirty re-polls between each TICK event
// and the next probe callback (one flush), and checks at every event that
// the acting slot, which had candidates at the last flush, holds no wake.
// Every machine of an MMT system is one slot, so slot == owner.
class TickRepollWatch final : public Probe {
 public:
  explicit TickRepollWatch(const Executor& exec) : exec_(exec) {}
  void on_event(const TimedEvent& e, const Machine&) override {
    settle();
    if (exec_.has_wake(static_cast<std::size_t>(e.owner))) ++woken_actors_;
    if (e.action.name == "TICK") {
      ++ticks_;
      tick_repolls_ = exec_.stats().dirty_repolls;
    }
  }
  void on_time_advance(Time, Time) override { settle(); }
  std::size_t ticks() const { return ticks_; }
  std::size_t other_repolls() const { return other_repolls_; }
  std::size_t woken_actors() const { return woken_actors_; }

 private:
  // The flush after a TICK re-polls its TickSource and nothing else.
  void settle() {
    if (tick_repolls_ == kNone) return;
    const std::uint64_t n = exec_.stats().dirty_repolls - tick_repolls_;
    if (n != 1) ++other_repolls_;
    tick_repolls_ = kNone;
  }
  static constexpr std::uint64_t kNone = UINT64_MAX;
  const Executor& exec_;
  std::uint64_t tick_repolls_ = kNone;
  std::size_t ticks_ = 0;
  std::size_t other_repolls_ = 0;
  std::size_t woken_actors_ = 0;
};

// A TICK only raises the MMT node's mmtclock, which neither its candidates
// nor its hints read, so the node reports the input inert and only the
// ticking TickSource is re-polled.
TEST(SchedulerEquivalence, MmtTickRepollsOnlyItsTickSource) {
  const PerfectDrift drift;
  const RwRunConfig cfg = rw_cfg(42);
  const auto twin = assemble_rw(cfg, RwModel::kMmt, drift);
  for (const Machine* m : twin->composition()) {
    ASSERT_EQ(m->part_count(), 1u) << m->name();
  }
  TickRepollWatch watch(*twin);
  twin->attach_probe(&watch);
  twin->run();
  EXPECT_GT(watch.ticks(), 100u);
  EXPECT_EQ(watch.other_repolls(), 0u);
  EXPECT_EQ(watch.woken_actors(), 0u);
  const auto reference = assemble_rw(cfg, RwModel::kMmt, drift);
  run_reference(*reference);
  EXPECT_EQ(trace_to_text(normalize_uids(twin->events())),
            trace_to_text(normalize_uids(reference->events())));
}

// --- multi-part machines ----------------------------------------------------

// The calendar counts scheduler slots (one per part), not machines. One
// composite of 100 one-job Batchers is one machine with 100 parts, each
// holding one wake until its job comes due.
TEST(SchedulerParts, WheelHoldsOneWakePerPart) {
  auto run = [](Loop loop) {
    RecordingProbe probe;
    Executor exec({.horizon = seconds(1), .seed = 3, .probes = {&probe}});
    WakeWatch wakes(exec);
    exec.attach_probe(&wakes);
    auto alarms = std::make_unique<CompositeMachine>("alarms");
    for (int k = 0; k < 100; ++k) {
      alarms->add(std::make_unique<Batcher>(k, microseconds(k + 1),
                                            milliseconds(1), /*batches=*/1,
                                            /*jobs=*/1));
    }
    exec.add_owned(std::move(alarms));
    const auto report = run_on(exec, loop);
    EXPECT_TRUE(report.quiesced);
    return BatchRun{exec.events(), probe.text(), report.stats,
                    wakes.max_ne(), wakes.max_ub()};
  };
  const BatchRun wheel = run(Loop::kWheel);
  EXPECT_EQ(wheel.events.size(), 100u);
  EXPECT_EQ(wheel.max_ne, 100u);  // every part waits on its own wake
  EXPECT_LE(wheel.max_ub, 100u);
  const BatchRun reference = run(Loop::kReference);
  EXPECT_EQ(trace_to_text(normalize_uids(wheel.events)),
            trace_to_text(normalize_uids(reference.events)));
  EXPECT_EQ(wheel.probes, reference.probes);
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
  for (const Loop loop : kLoops) {
    Executor exec({.horizon = seconds(1), .max_events = 100});
    exec.add_owned(std::make_unique<Spinner>());
    exec.stop_when([] { return false; });  // never fires; cap wins the race
    const auto report = run_on(exec, loop);
    EXPECT_TRUE(report.hit_event_cap) << loop_name(loop);
    EXPECT_EQ(report.steps, 100u) << loop_name(loop);
    EXPECT_FALSE(report.quiesced) << loop_name(loop);
  }
}

TEST(SchedulerCap, CapWithoutStopConditionStillThrows) {
  for (const Loop loop : kLoops) {
    Executor exec({.horizon = seconds(1), .max_events = 100});
    exec.add_owned(std::make_unique<Spinner>());
    EXPECT_THROW(run_on(exec, loop), CheckError) << loop_name(loop);
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
