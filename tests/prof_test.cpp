// Executor microprofiler (obs/prof.hpp): the sampling per-phase cycle
// attribution must conserve (phase entries sum to phase_total_ns, per-kind
// counts match the executed event mix), exhaustive sampling (N=1) must
// count every iteration and event exactly, attaching the profiler must
// perturb neither the event trace nor the probe sequence, the exporters
// (folded stacks, self-time table, exec.prof.* gauges) must be well-formed,
// and a zero-event run must report zeros — never NaN/inf.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "algos/flood.hpp"
#include "analysis/trace_check.hpp"
#include "core/trace_io.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "runtime/system.hpp"

namespace psc {
namespace {

// Records the exact probe-visible sequence so two runs can be compared
// byte-for-byte (uids are compared through the trace instead; here event
// order + names + times suffice because the profiled and unprofiled runs
// share one deterministic scheduler).
class SequenceProbe final : public Probe {
 public:
  void on_event(const TimedEvent& e, const Machine& /*owner*/) override {
    std::ostringstream os;
    os << e.time << " " << e.owner << " " << e.action.name;
    seq_.push_back(os.str());
  }
  void on_time_advance(Time from, Time to) override {
    seq_.push_back("advance " + std::to_string(from) + "->" +
                   std::to_string(to));
  }
  const std::vector<std::string>& seq() const { return seq_; }

 private:
  std::vector<std::string> seq_;
};

struct FloodRun {
  TimedTrace events;
  ExecutorReport report;
  std::vector<std::string> probe_seq;

  explicit FloodRun(std::uint64_t seed, Profiler* prof,
                    bool with_probe = false) {
    Executor exec({.horizon = seconds(60), .seed = seed});
    const Graph g = Graph::ring(6);
    ChannelConfig cc;
    cc.d1 = microseconds(50);
    cc.d2 = microseconds(200);
    cc.seed = seed ^ 0xf100d;
    add_timed_system(exec, g, cc,
                     make_flood_nodes(g, /*source=*/0, /*payload=*/42,
                                      /*hops_bound=*/g.n, cc.d2,
                                      /*margin=*/microseconds(10)));
    SequenceProbe sp;
    if (with_probe) exec.attach_probe(&sp);
    if (prof != nullptr) exec.attach_profiler(prof);
    report = exec.run();
    events = exec.events();
    probe_seq = sp.seq();
  }
};

// Event-kind mix of the live trace, keyed the way the profiler interns its
// per-kind slots (action name).
std::map<std::string, std::uint64_t> kind_mix(const TimedTrace& events) {
  std::map<std::string, std::uint64_t> mix;
  for (const TimedEvent& e : events) ++mix[std::string(e.action.name)];
  return mix;
}

TEST(Profiler, ExhaustiveSamplingCountsEveryIterationAndEvent) {
  Profiler prof(ProfOptions{.sample_every = 1});
  FloodRun run(1, &prof);
  ASSERT_GT(run.report.steps, 0u);
  EXPECT_EQ(prof.events(), run.report.steps);
  EXPECT_EQ(prof.sampled_iterations(), prof.iterations());
  EXPECT_GE(prof.iterations(), run.report.steps);  // events + pure advances
  // Every executed event was attributed to exactly one action kind and one
  // machine kind.
  EXPECT_EQ(prof.kind_count_total(), run.report.steps);
  EXPECT_EQ(prof.machine_count_total(), run.report.steps);
}

TEST(Profiler, PerKindAttributionMatchesTraceMix) {
  Profiler prof(ProfOptions{.sample_every = 1});
  FloodRun run(1, &prof);
  ASSERT_GT(run.events.size(), 0u);
  for (const auto& [name, count] : kind_mix(run.events)) {
    EXPECT_EQ(prof.kind_count(name), count) << "kind " << name;
  }
  // The flood assembly has exactly two machine types.
  EXPECT_GT(prof.machine_count("FloodNode"), 0u);
  EXPECT_GT(prof.machine_count("Channel"), 0u);
  EXPECT_EQ(prof.machine_count("FloodNode") + prof.machine_count("Channel"),
            run.report.steps);
}

TEST(Profiler, PhaseTotalsConserve) {
  Profiler prof(ProfOptions{.sample_every = 1});
  FloodRun run(1, &prof);
  const ProfReport report = prof.report();
  EXPECT_EQ(report.events, run.report.steps);
  EXPECT_EQ(report.sample_every, 1u);
  EXPECT_EQ(report.sample_scale, 1.0);
  ASSERT_EQ(report.phases.size(), kProfPhaseCount);
  // phase_total_ns() is exactly the sum of the per-phase entries it ranks.
  double sum = 0;
  for (const ProfEntry& e : report.phases) sum += e.ns;
  EXPECT_DOUBLE_EQ(report.phase_total_ns(), sum);
  // Wall clock was measured and the scaled phase spans fit inside a sane
  // envelope of it (timer granularity keeps this loose; the tight 5% gate
  // runs at bench scale where spans are long enough to trust).
  EXPECT_GT(report.wall_ns, 0.0);
  EXPECT_GT(sum, 0.0);
  // Per-kind ns sums to (at most, sampling aside) the step phase: with N=1
  // both sides cover every event, so they must agree exactly in ticks —
  // compare in ns with slack for float accumulation order.
  double kinds_ns = 0;
  for (const ProfEntry& e : report.kinds) kinds_ns += e.ns;
  const double step_ns =
      report.phases[static_cast<std::size_t>(ProfPhase::kStep)].ns;
  EXPECT_NEAR(kinds_ns, step_ns, 1e-6 * std::max(1.0, step_ns));
}

TEST(Profiler, SamplingSubsetsExhaustiveCounts) {
  Profiler sampled(ProfOptions{.sample_every = 8});
  FloodRun run(1, &sampled);
  EXPECT_EQ(sampled.events(), run.report.steps);  // events counted exactly
  EXPECT_LT(sampled.sampled_iterations(), sampled.iterations());
  // Jittered 1-in-8 sampling: after the first sample at iteration 8, gaps
  // are drawn from [N/2, 3N/2) = [4, 11] (Profiler::next_gap), so the
  // sampled count is pinned by the gap bounds, not an exact 1/8.
  EXPECT_GE(sampled.sampled_iterations(), sampled.iterations() / 12);
  EXPECT_LE(sampled.sampled_iterations(), sampled.iterations() / 4 + 1);
  std::uint64_t kind_hits = 0;
  for (const auto& [name, count] : kind_mix(run.events)) {
    EXPECT_LE(sampled.kind_count(name), count) << "kind " << name;
    kind_hits += sampled.kind_count(name);
  }
  EXPECT_LE(kind_hits, run.report.steps);
  const ProfReport report = sampled.report();
  EXPECT_EQ(report.sample_every, 8u);
  EXPECT_GT(report.sample_scale, 1.0);
}

TEST(Profiler, DoesNotPerturbTraceOrProbeSequence) {
  FloodRun bare(7, nullptr, /*with_probe=*/true);
  Profiler prof(ProfOptions{.sample_every = 4});
  FloodRun profiled(7, &prof, /*with_probe=*/true);
  ASSERT_GT(bare.events.size(), 0u);
  EXPECT_EQ(trace_to_text(bare.events), trace_to_text(profiled.events));
  EXPECT_EQ(bare.probe_seq, profiled.probe_seq);
  EXPECT_EQ(bare.report.end_time, profiled.report.end_time);
  EXPECT_EQ(bare.report.steps, profiled.report.steps);
}

TEST(Profiler, BindResetsPerExecutorMemosButKeepsTotals) {
  // Two different executors aggregate into one profiler (the psc-report /
  // bench/common.hpp pattern): totals accumulate, per-kind names stay
  // correct across the rebind (stale memo slots would misattribute).
  Profiler prof(ProfOptions{.sample_every = 1});
  FloodRun a(1, &prof);
  const std::uint64_t events_a = prof.events();
  FloodRun b(2, &prof);
  EXPECT_EQ(prof.events(), events_a + b.report.steps);
  EXPECT_EQ(prof.kind_count_total(), prof.events());
  std::map<std::string, std::uint64_t> mix = kind_mix(a.events);
  for (const auto& [name, count] : kind_mix(b.events)) mix[name] += count;
  for (const auto& [name, count] : mix) {
    EXPECT_EQ(prof.kind_count(name), count) << "kind " << name;
  }
}

TEST(Profiler, LintProbePhaseAttribution) {
  // An InvariantProbe attached alongside the profiler lands in the kLint
  // phase (profile_name() == "lint"), not kProbe.
  Profiler prof(ProfOptions{.sample_every = 1});
  TraceCheckOptions lo;
  lo.d1 = microseconds(50);
  lo.d2 = microseconds(200);
  lo.num_nodes = 6;
  InvariantProbe lint(lo);
  Executor exec({.horizon = seconds(60), .seed = 1});
  const Graph g = Graph::ring(6);
  ChannelConfig cc;
  cc.d1 = lo.d1;
  cc.d2 = lo.d2;
  cc.seed = 1 ^ 0xf100d;
  add_timed_system(exec, g, cc,
                   make_flood_nodes(g, 0, 42, g.n, cc.d2, microseconds(10)));
  exec.attach_probe(&lint);
  exec.attach_profiler(&prof);
  const ExecutorReport report = exec.run();
  ASSERT_GT(report.steps, 0u);
  EXPECT_FALSE(lint.report().has_errors());
  EXPECT_EQ(prof.phase_hits(ProfPhase::kLint), report.steps);
  EXPECT_EQ(prof.phase_hits(ProfPhase::kProbe), 0u);
  EXPECT_GT(prof.phase_ticks(ProfPhase::kLint), 0u);
}

TEST(Profiler, ZeroRunReportsZerosNotNaN) {
  Profiler prof;  // never attached, never run
  const ProfReport report = prof.report();
  EXPECT_EQ(report.iterations, 0u);
  EXPECT_EQ(report.events, 0u);
  EXPECT_EQ(report.phase_total_ns(), 0.0);
  EXPECT_EQ(report.sample_scale, 1.0);
  for (const ProfEntry& e : report.phases) {
    EXPECT_TRUE(std::isfinite(e.ns)) << e.name;
    EXPECT_EQ(e.ns, 0.0) << e.name;
  }
  for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
    EXPECT_TRUE(
        std::isfinite(report.phase_ns_per_event(static_cast<ProfPhase>(i))));
  }
  // The exporters stay well-formed on the empty report.
  MetricsRegistry reg;
  prof.export_metrics(reg);
  const Gauge* scale = reg.find_gauge("exec.prof.sample_scale");
  ASSERT_NE(scale, nullptr);
  EXPECT_TRUE(std::isfinite(scale->last()));
  std::ostringstream folded, table;
  write_folded(folded, report);
  EXPECT_EQ(folded.str(), "");  // all-zero stacks are skipped, not "x 0"
  write_prof_table(table, report);
  EXPECT_NE(table.str().find("0 events"), std::string::npos);
}

TEST(Profiler, FoldedStacksAreFlamegraphCompatible) {
  Profiler prof(ProfOptions{.sample_every = 1});
  FloodRun run(1, &prof);
  ASSERT_GT(run.report.steps, 0u);
  std::ostringstream os;
  write_folded(os, prof.report());
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  bool saw_step_kind = false, saw_machine = false;
  while (std::getline(is, line)) {
    ++lines;
    // "<frame>(;<frame>)* <integer>" — what flamegraph.pl consumes.
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    ASSERT_GT(sp, 0u) << line;
    const std::string stack = line.substr(0, sp);
    const std::string count = line.substr(sp + 1);
    EXPECT_FALSE(stack.empty()) << line;
    EXPECT_EQ(stack.find(' '), std::string::npos) << line;
    ASSERT_FALSE(count.empty()) << line;
    for (const char c : count) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_NE(count, "0") << line;  // zero-weight stacks are skipped
    if (stack.rfind("exec;event;step;", 0) == 0) saw_step_kind = true;
    if (stack.rfind("machine;", 0) == 0) saw_machine = true;
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(saw_step_kind);  // per-kind leaves under the step frame
  EXPECT_TRUE(saw_machine);    // per-machine-type side view
}

TEST(Profiler, SelfTimeTableNamesEveryActivePhase) {
  Profiler prof(ProfOptions{.sample_every = 1});
  FloodRun run(1, &prof);
  std::ostringstream os;
  write_prof_table(os, prof.report());
  const std::string table = os.str();
  for (const char* phase : {"poll", "pick", "route", "step"}) {
    EXPECT_NE(table.find(phase), std::string::npos) << phase;
  }
  EXPECT_NE(table.find("ns/event"), std::string::npos);
  EXPECT_NE(table.find("kinds (step ns/event):"), std::string::npos);
  EXPECT_NE(table.find("DELIVER"), std::string::npos);
}

}  // namespace
}  // namespace psc
