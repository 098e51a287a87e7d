// Executor scheduler bench: calendar/dirty-set loop vs the legacy
// O(machines)-per-event polling loop (the Def 2.2 reference loop the
// scheduler tests compare against, tests/support/reference_loop.hpp), on
// the two workload shapes that bracket the runtime's use (docs/EXECUTOR.md):
//
//   flood  — ring of n FloodNodes + n channels (2n machines): sparse
//            event cascade, worst case for per-event full re-polling;
//   queue  — replicated queue over a complete-with-self-loops graph
//            (2n + n^2 machines): broadcast-heavy, stresses output
//            fan-out/routing.
//
// Rows report min-of-`--repeats` ns/event per arm at fixed seeds (probe
// overheads instead use the median within-repeat ratio — see
// paired_overhead); both arms must execute the same number of events (the schedulers
// are trace-equivalent — tests/scheduler_test.cpp proves byte equality),
// and every repeat of one arm must reproduce the same event count and
// ExecutorStats (see fold()).
// Each sample re-runs its cell until the timed spans total kMinMeasureNs
// (after one discarded warmup run), so short cells are no longer
// single-run timer-noise measurements.
//
// A second section sweeps the flood ring from 1k to 1M machines on the
// wheel scheduler (legacy polling only up to kLegacySweepCap machines — it
// is O(machines) per event) and gates on the wheel staying
// memory-flat: ns/event at 65,536 machines must be <= 2x its value at
// 1,024. PSC_BENCH_MAX_MACHINES (or --max-machines) caps the sweep for
// CI boxes.
//
// `--json PATH` writes the rows as JSONL for cross-PR perf diffing
// (BENCH_executor.json); `--smoke` shrinks the sweep for CI.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "algos/flood.hpp"
#include "analysis/bounds.hpp"
#include "analysis/trace_check.hpp"
#include "common.hpp"
#include "obs/flight.hpp"
#include "obs/observatory.hpp"
#include "obs/prof.hpp"
#include "runtime/executor.hpp"
#include "runtime/system.hpp"
#include "rw/queue.hpp"
#include "support/reference_loop.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace psc::bench {
namespace {

constexpr std::uint64_t kSeed = 42;

// Profiler sampling period for the PSC_PROFILE sweep arm. PSC_PROF_SAMPLE=N
// overrides the default (set in main, same contract as the harness-based
// benches in bench/common.hpp); the overhead/conservation gates are
// calibrated for the default 1-in-64 — N=1 is the exhaustive debugging mode
// and will not hold the 10% overhead bar.
std::uint32_t g_prof_sample = ProfOptions{}.sample_every;

// The two scheduler arms: `legacy` runs the reference loop
// (run_reference), otherwise Executor::run(). "sched" rows time the wheel
// scheduler.
struct SchedArm {
  bool legacy = false;
};
constexpr SchedArm kWheelArm{false};
constexpr SchedArm kLegacyArm{true};

// Legacy polling is O(machines) per event; past this many machines one
// sweep cell alone would take minutes, so the sweep drops that arm.
constexpr std::size_t kLegacySweepCap = 4096;

// One flood wave over a ring of n costs 3n events (n DELIVER + n SENDMSG +
// n RECVMSG), plus a single COMPLETE for the whole run — at n=256 one wave
// is only 769 events, far too short a run to time stably. Waves scale the
// event count to at least `target_events` per cell without changing the
// per-event work.
int flood_waves(int n, int target_events) {
  const int per_wave = 3 * n;
  return std::max(1, (target_events - 1 + per_wave - 1) / per_wave);
}

std::unique_ptr<Executor> build_flood(int n, int target_events) {
  const int waves = flood_waves(n, target_events);
  // Generous horizon: a wave over a 512k ring takes ~65 simulated seconds
  // (one [d1,d2] hop per node); small cells quiesce long before this, so
  // their traces are unchanged.
  auto exec = std::make_unique<Executor>(
      ExecutorOptions{.horizon = seconds(3600),
                      .seed = kSeed,
                      // The 1M-machine sweep cell runs >10M events (the
                      // default runaway guard); its budget is still capped
                      // at 50M in run_sweep_cell.
                      .max_events = 100'000'000,
                      .record_events = false});
  const Graph g = Graph::ring(n);
  ChannelConfig cc;
  cc.d1 = microseconds(50);
  cc.d2 = microseconds(200);
  cc.seed = kSeed;
  add_timed_system(*exec, g, cc,
                   make_flood_nodes(g, /*source=*/0, 0xf100d,
                                    /*hops_bound=*/g.n, cc.d2, 1, waves,
                                    /*wave_gap=*/cc.d2));
  return exec;
}

std::unique_ptr<Executor> build_queue(int n) {
  auto exec = std::make_unique<Executor>(
      ExecutorOptions{.horizon = seconds(30),
                      .seed = kSeed,
                      .record_events = false});
  Rng seeder(kSeed ^ 0x9c);
  for (int i = 0; i < n; ++i) {
    QueueClient::Options o;
    o.node = i;
    o.num_ops = 6;
    o.enq_fraction = 0.5;
    o.think_min = 0;
    o.think_max = microseconds(200);
    o.seed = seeder.next();
    exec->add_owned(std::make_unique<QueueClient>(o));
  }
  ChannelConfig cc;
  cc.d1 = microseconds(20);
  cc.d2 = microseconds(250);
  cc.seed = kSeed ^ 0x99;
  add_timed_system(*exec, Graph::complete_with_self_loops(n), cc,
                   make_queue_nodes(n, cc.d2, /*delta=*/1));
  return exec;
}

struct Arm {
  double ns_per_event = 0;
  std::size_t events = 0;
  std::size_t machines = 0;
  Duration min_slack = kTimeMax;  // PSC_OBS arm only
  ExecutorStats stats;  // from the last repeat (fold() checks that every
                        // repeat reproduces it)
  // PSC_PROFILE arm only: the microprofiler's scaled report for the run
  // behind ns_per_event's fold (fold() keeps the latest — deterministic
  // work, and each report is self-consistent with its own wall).
  ProfReport prof_report;
  bool profiled = false;
};

// One timed run of one arm; only run() is timed. `lint` attaches an online
// InvariantProbe (analysis/trace_check.hpp) with the workload's own
// [d1, d2] — the PSC_LINT=1 overhead arm. `slack` attaches the bound-slack
// observatory plus a 10ms-cadence TimeSeries over its registry
// (obs/observatory.hpp) — the PSC_OBS=1 overhead arm.
Arm measure_once(const std::string& workload, int n, SchedArm sched,
                 int target_events, const TraceCheckOptions* lint = nullptr,
                 const SlackOptions* slack = nullptr,
                 const FlightOptions* flight = nullptr,
                 const ProfOptions* prof = nullptr,
                 const BoundCertOptions* cert = nullptr) {
  Arm arm;
  auto exec = workload == "flood" ? build_flood(n, target_events)
                                  : build_queue(n);
  std::unique_ptr<InvariantProbe> probe;
  if (lint != nullptr) {
    probe = std::make_unique<InvariantProbe>(*lint);
    exec->attach_probe(probe.get());
  }
  // PSC_CERT arm: the certificate probe checks each delivery against its
  // *derived* per-edge window (analysis/bounds.hpp), not the declared
  // system envelope. Harvesting — interference graph + shortest-path
  // certificates over the whole composition — happens outside the timed
  // span; only the per-event check is measured.
  std::unique_ptr<CertificateProbe> cert_probe;
  if (cert != nullptr) {
    cert_probe = std::make_unique<CertificateProbe>(*cert);
    cert_probe->harvest(exec->composition());
    PSC_CHECK(!cert_probe->report().has_errors(),
              workload << " n=" << n << " certification errors:\n"
                       << cert_probe->report().to_text());
    exec->attach_probe(cert_probe.get());
  }
  // PSC_PROFILE arm: the sampling microprofiler bracketing the scheduler's
  // hot-loop phases. Construction happens outside the timed span; report
  // assembly after it.
  std::unique_ptr<Profiler> profiler;
  if (prof != nullptr) {
    profiler = std::make_unique<Profiler>(*prof);
    exec->attach_profiler(profiler.get());
  }
  // PSC_FLIGHT=1 arm: the always-on binary flight recorder on the record
  // path. Construction (ring allocation) happens outside the timed span.
  std::unique_ptr<FlightRecorder> rec;
  if (flight != nullptr) {
    rec = std::make_unique<FlightRecorder>(*flight);
    exec->attach_flight(rec.get());
  }
  std::unique_ptr<MetricsRegistry> reg;
  std::unique_ptr<BoundSlackProbe> slack_probe;
  std::unique_ptr<TimeSeries> ts;
  std::unique_ptr<TimeSeriesProbe> ts_probe;
  if (slack != nullptr) {
    reg = std::make_unique<MetricsRegistry>();
    slack_probe = std::make_unique<BoundSlackProbe>(*reg, *slack);
    ts = std::make_unique<TimeSeries>(
        *reg, TimeSeriesOptions{.cadence = milliseconds(10)});
    ts_probe = std::make_unique<TimeSeriesProbe>(*ts);
    exec->attach_probe(slack_probe.get());
    exec->attach_probe(ts_probe.get());
  }
  arm.machines = exec->machine_count();
  const auto t0 = std::chrono::steady_clock::now();
  const auto report = sched.legacy ? run_reference(*exec) : exec->run();
  const auto t1 = std::chrono::steady_clock::now();
  PSC_CHECK(report.steps > 0, workload << " n=" << n << " ran no events");
  warn_event_cap(report.hit_event_cap,
                 workload + " n=" + std::to_string(n));
  if (rec != nullptr) {
    PSC_CHECK(rec->total_recorded() == report.steps,
              workload << " n=" << n << " flight recorder saw "
                       << rec->total_recorded() << " of " << report.steps
                       << " events");
  }
  if (probe != nullptr) {
    PSC_CHECK(!probe->report().has_errors(),
              workload << " n=" << n << " lint errors:\n"
                       << probe->report().to_text());
  }
  if (cert_probe != nullptr) {
    PSC_CHECK(!cert_probe->report().has_errors(),
              workload << " n=" << n << " certificate violations:\n"
                       << cert_probe->report().to_text());
  }
  if (slack_probe != nullptr) {
    arm.min_slack = slack_probe->min_slack();
    PSC_CHECK(slack_probe->violations() == 0,
              workload << " n=" << n << " observed negative bound slack "
                       << format_time(arm.min_slack));
  }
  if (profiler != nullptr) {
    arm.prof_report = profiler->report();
    arm.profiled = true;
  }
  arm.events = report.steps;
  arm.stats = report.stats;
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  arm.ns_per_event = ns / static_cast<double>(report.steps);
  return arm;
}

// Repeats of one arm compared by fold(), and how many of them diverged.
int g_repeat_pairs = 0;
int g_repeat_mismatches = 0;

// Folds one repeat into the aggregate: keep the fastest ns/event (external
// load only ever adds time, so min-of-repeats is the robust estimator on a
// shared box), latest counters otherwise. The counters must be identical
// across repeats — fixed seed, deterministic scheduler — so each repeat is
// checked against the last: at sweep cells past kLegacySweepCap this is
// the only cross-check of the scheduler's work.
void fold(Arm& agg, const Arm& once) {
  if (agg.events != 0) {
    ++g_repeat_pairs;
    if (once.events != agg.events || once.stats != agg.stats) {
      ++g_repeat_mismatches;
      std::printf("  repeat diverged on a %zu-machine arm: %zu vs %zu "
                  "events, ExecutorStats %s\n",
                  once.machines, once.events, agg.events,
                  once.stats == agg.stats ? "equal" : "differ");
    }
  }
  const double best = agg.events == 0
                          ? once.ns_per_event
                          : std::min(agg.ns_per_event, once.ns_per_event);
  agg = once;
  agg.ns_per_event = best;
}

// A single run of a small cell (a few thousand events, a few hundred
// microseconds) is timer-noise-bound: context switches and clock
// granularity swing it by tens of percent. One *sample* therefore re-runs
// the cell until the timed spans total at least kMinMeasureNs (capped at
// kMaxInnerRuns fresh executors) and keeps the fastest ns/event. Big cells
// exceed the floor on their first run and pay nothing extra.
constexpr double kMinMeasureNs = 10e6;  // >= 10ms of measured run() per sample
constexpr int kMaxInnerRuns = 8;

Arm measure_sample(const std::string& workload, int n, SchedArm sched,
                   int target_events, const TraceCheckOptions* lint = nullptr,
                   const SlackOptions* slack = nullptr,
                   const FlightOptions* flight = nullptr,
                   const ProfOptions* prof = nullptr,
                   const BoundCertOptions* cert = nullptr) {
  Arm best;
  double total_ns = 0;
  for (int i = 0; i < kMaxInnerRuns; ++i) {
    const Arm once = measure_once(workload, n, sched, target_events, lint,
                                  slack, flight, prof, cert);
    total_ns += once.ns_per_event * static_cast<double>(once.events);
    fold(best, once);
    if (total_ns >= kMinMeasureNs) break;
  }
  return best;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;  // zero-event/zero-cell runs report 0, not UB
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Probe overhead estimator: the median over repeats of the *within-repeat*
// ratio arm/sched. The two runs of one repeat execute back-to-back, so
// machine-wide load drift multiplies both and divides out of the ratio;
// taking independent min-of-repeats for numerator and denominator instead
// lets each arm draw its own luckiest repeat and swings the quotient by
// several percent on a loaded box (observed here: -10%..+17% for the same
// binary).
double paired_overhead(const std::vector<double>& arm,
                       const std::vector<double>& sched) {
  std::vector<double> ratios;
  ratios.reserve(arm.size());
  for (std::size_t i = 0; i < arm.size(); ++i) {
    ratios.push_back(arm[i] / sched[i]);
  }
  return median(std::move(ratios)) - 1.0;
}

struct Row {
  std::string workload;
  int nodes = 0;
  std::size_t machines = 0;
  std::size_t events = 0;
  double legacy_ns = 0;
  double sched_ns = 0;
  double speedup = 0;
  // Scheduler self-metric of the incremental arm (ExecutorStats): how
  // much of the speedup comes from candidate-cache hits.
  double cache_hit_rate = 0;
  // PSC_LINT=1 arm: scheduler loop with an online InvariantProbe attached.
  double lint_ns = 0;        // 0 when the arm did not run
  double lint_overhead = 0;  // paired_overhead(): median within-repeat ratio
  // PSC_OBS=1 arm: scheduler loop with the bound-slack observatory +
  // time-series probes attached.
  double obs_ns = 0;         // 0 when the arm did not run
  double obs_overhead = 0;   // paired_overhead(): median within-repeat ratio
  Duration min_slack = kTimeMax;
  // PSC_CERT=1 arm: scheduler loop with an online CertificateProbe checking
  // each delivery against its derived per-edge certificate.
  double cert_ns = 0;        // 0 when the arm did not run
  double cert_overhead = 0;  // paired_overhead(): median within-repeat ratio
};

Row run_config(const std::string& workload, int n, int repeats,
               int target_events, bool lint_arm, bool obs_arm,
               bool cert_arm) {
  TraceCheckOptions lo;
  lo.d1 = microseconds(workload == "flood" ? 50 : 20);
  lo.d2 = microseconds(workload == "flood" ? 200 : 250);
  lo.num_nodes = n;
  SlackOptions so;
  so.d1 = lo.d1;
  so.d2 = lo.d2;
  BoundCertOptions co;
  co.d1 = lo.d1;
  co.d2 = lo.d2;
  // At bench scale (up to 1024 machines) per-entity gauges are the
  // documented off switch (SlackOptions): the aggregate histograms carry
  // the signal; hundreds of per-channel series would measure registry
  // growth, not the probe.
  so.per_entity = false;

  // The arms interleave within each repeat rather than running as
  // sequential phases: machine-wide load drift then shifts all arms of a
  // repeat together instead of landing in the overhead ratios that the
  // sub-5% probe gates divide out. Per-repeat ns/event is kept alongside
  // the folded minimum so those ratios can be paired within a repeat.
  // One discarded warmup run per participating arm: the first run of a
  // cell pays first-touch page faults and cold caches that min-of-samples
  // would otherwise have to out-vote.
  measure_once(workload, n, kLegacyArm, target_events);
  measure_once(workload, n, kWheelArm, target_events);
  if (lint_arm) measure_once(workload, n, kWheelArm, target_events, &lo);
  if (obs_arm) {
    measure_once(workload, n, kWheelArm, target_events, nullptr, &so);
  }
  if (cert_arm) {
    measure_once(workload, n, kWheelArm, target_events, nullptr, nullptr,
                 nullptr, nullptr, &co);
  }

  Arm legacy, sched, lint, obs, cert;
  std::vector<double> sched_r, lint_r, obs_r, cert_r;
  for (int r = 0; r < repeats; ++r) {
    fold(legacy, measure_sample(workload, n, kLegacyArm, target_events));
    const Arm s = measure_sample(workload, n, kWheelArm, target_events);
    sched_r.push_back(s.ns_per_event);
    fold(sched, s);
    if (lint_arm) {
      const Arm l = measure_sample(workload, n, kWheelArm, target_events, &lo);
      lint_r.push_back(l.ns_per_event);
      fold(lint, l);
    }
    if (obs_arm) {
      const Arm o = measure_sample(workload, n, kWheelArm, target_events,
                                   nullptr, &so);
      obs_r.push_back(o.ns_per_event);
      fold(obs, o);
    }
    if (cert_arm) {
      const Arm c = measure_sample(workload, n, kWheelArm, target_events,
                                   nullptr, nullptr, nullptr, nullptr, &co);
      cert_r.push_back(c.ns_per_event);
      fold(cert, c);
    }
  }
  shape(legacy.events == sched.events,
        workload + " n=" + std::to_string(n) +
            ": both schedulers execute the same event count");
  Row row;
  row.workload = workload;
  row.nodes = n;
  row.machines = sched.machines;
  row.events = sched.events;
  row.legacy_ns = legacy.ns_per_event;
  row.sched_ns = sched.ns_per_event;
  row.speedup = legacy.ns_per_event / sched.ns_per_event;
  row.cache_hit_rate = sched.stats.cache_hit_rate();
  if (lint_arm) {
    row.lint_ns = lint.ns_per_event;
    row.lint_overhead = paired_overhead(lint_r, sched_r);
  }
  if (obs_arm) {
    row.obs_ns = obs.ns_per_event;
    row.obs_overhead = paired_overhead(obs_r, sched_r);
    row.min_slack = obs.min_slack;
  }
  if (cert_arm) {
    row.cert_ns = cert.ns_per_event;
    row.cert_overhead = paired_overhead(cert_r, sched_r);
  }
  std::printf("  %-6s %5d %9zu %8zu %14.1f %14.1f %9.2fx %6.3f",
              workload.c_str(), n, row.machines, row.events, row.legacy_ns,
              row.sched_ns, row.speedup, row.cache_hit_rate);
  if (lint_arm) {
    std::printf(" %12.1f %+7.1f%%", row.lint_ns, row.lint_overhead * 100.0);
  }
  if (obs_arm) {
    std::printf(" %12.1f %+7.1f%%", row.obs_ns, row.obs_overhead * 100.0);
  }
  if (cert_arm) {
    std::printf(" %12.1f %+7.1f%%", row.cert_ns, row.cert_overhead * 100.0);
  }
  std::printf("\n");
  return row;
}

// --- the 1k -> 1M machine sweep -------------------------------------------
//
// Flood over a ring of n nodes (2n machines): only the wavefront is active
// at any instant, so per-event cost measures pure scheduler overhead as a
// function of *registered* machines — exactly the memory-flatness claim.
// The wheel scheduler runs at every scale; legacy polling stops at
// kLegacySweepCap machines.
struct SweepRow {
  int nodes = 0;
  std::size_t machines = 0;
  std::size_t events = 0;
  double sched_ns = 0;   // wheel calendar (the default scheduler)
  double legacy_ns = 0;  // 0 when the arm was skipped (too many machines)
  // PSC_FLIGHT=1 arm: wheel calendar with the flight recorder on the
  // record path. 0 when the arm did not run.
  double flight_ns = 0;
  // flight_ns / sched_ns - 1, both min-of-repeats. The sweep cells run
  // once per sample (a quarter second each at the gated scale), so the
  // within-repeat pairing that stabilizes the sub-5% probe gates is a
  // ratio of two noisy singletons here; min-of-repeats is the documented
  // robust estimator for these cells (see fold()), and the gate below has
  // the margin to absorb what is left.
  double flight_overhead = 0;
  // Wheel self-metrics for the cell (deterministic across repeats).
  std::uint64_t wheel_cascades = 0;
  // PSC_PROFILE=1 arm: wheel calendar with the sampling microprofiler
  // bracketing every hot-loop phase (default 1-in-64 sampling). 0 / false
  // when the arm did not run.
  double prof_ns = 0;
  double prof_overhead = 0;  // prof_ns / sched_ns - 1, both min-of-repeats
  bool profiled = false;
  ProfReport prof_report;  // per-phase/per-kind attribution for the cell
  // Attribution cross-check (65,536-machine cell only): the profiler's
  // *direct* per-phase measurement of the flight-recorder and online-lint
  // cost, expressed as a fraction of the bare-wheel ns/event, next to the
  // *indirect* A/B-arm delta it replaces. Attaching either consumer also
  // flips the executor's event sink on — the bare arm never runs
  // record_event at all — so the direct estimate of what the A/B arm
  // measures is the record phase (TimedEvent scalar fill) *plus* the
  // consumer's own on_event/record phase. The two must agree (gated in
  // main) or the self-time table cannot be trusted; the gate shapes differ
  // per consumer (see the gate comment in main).
  bool attribution = false;
  // Null A/B delta of a second identical baseline arm (truth: 0%) — the
  // run's own measurement of how well two min-of-repeats ratios of this
  // cell can agree; the attribution gate's tolerance widens by it.
  double ab_noise = 0;
  double flight_ab = 0;      // flight-arm ns/event / baseline min - 1
  double flight_direct = 0;  // prof (kRecord + kFlight) ns/event / baseline
  double lint_ab = 0;        // lint-arm ns/event / baseline min - 1
  double lint_direct = 0;    // prof (kRecord + kLint) ns/event / baseline
};

SweepRow run_sweep_cell(int n, int repeats, int target_events,
                        bool flight_arm, bool prof_arm) {
  // Equal events-per-machine budget across cells: run() pays a one-time
  // O(machines) startup (first poll of every machine, first touch of all
  // scheduler state), so cells must amortize it over the same number of
  // events per machine or the big cells measure startup, not the
  // steady-state loop. n=512 is the reference cell: `--events` events
  // over 1024 machines, scaled linearly from there.
  const int cell_target = static_cast<int>(
      std::min<long long>(static_cast<long long>(target_events) * (n / 512),
                          50'000'000));
  // Warm small cells; big ones amortize first-touch over a long run.
  if (static_cast<std::size_t>(2 * n) <= 4 * kLegacySweepCap) {
    measure_once("flood", n, kWheelArm, cell_target);
  }
  // The flight arm's ring is sized like a deployment would size it: large
  // enough for a useful dump window, far smaller than the run (the 32k-node
  // cell records ~3M events into a 64k ring — eviction is the steady state
  // being measured, not an edge case).
  FlightOptions fo;
  ProfOptions po;  // 1-in-64 default — what PSC_PROFILE=1 deploys
  po.sample_every = g_prof_sample;
  Arm wheel, legacy, flight, prof;
  for (int r = 0; r < repeats; ++r) {
    fold(wheel, measure_sample("flood", n, kWheelArm, cell_target));
    if (flight_arm) {
      fold(flight, measure_sample("flood", n, kWheelArm, cell_target,
                                  nullptr, nullptr, &fo));
    }
    if (prof_arm) {
      fold(prof, measure_sample("flood", n, kWheelArm, cell_target, nullptr,
                                nullptr, nullptr, &po));
    }
  }
  if (flight_arm) {
    shape(wheel.events == flight.events,
          "sweep n=" + std::to_string(n) +
              ": the flight arm executes the same event count");
  }
  if (prof_arm) {
    shape(wheel.events == prof.events,
          "sweep n=" + std::to_string(n) +
              ": the profiler arm executes the same event count");
    shape(prof.prof_report.events == prof.events,
          "sweep n=" + std::to_string(n) +
              ": the profiler counts every executed event exactly");
  }
  SweepRow row;
  row.nodes = n;
  row.machines = wheel.machines;
  row.events = wheel.events;
  row.sched_ns = wheel.ns_per_event;
  if (flight_arm) {
    row.flight_ns = flight.ns_per_event;
    row.flight_overhead = flight.ns_per_event / wheel.ns_per_event - 1.0;
  }
  if (prof_arm) {
    row.prof_ns = prof.ns_per_event;
    row.prof_overhead = wheel.ns_per_event > 0
                            ? prof.ns_per_event / wheel.ns_per_event - 1.0
                            : 0.0;
    row.prof_report = prof.prof_report;
    row.profiled = prof.profiled;
  }
  // Attribution cross-check at the gate cell (65,536 machines): profile the
  // flight and lint arms and compare the profiler's direct record-path
  // cost against the A/B-arm deltas those phases replace. Estimator
  // choices, each forced by a measured failure mode on a shared box:
  //   - The baseline is re-measured *inside this loop*, interleaved with
  //     the consumer arms, not taken from the first-loop wheel minimum —
  //     cells run ~0.3s and the box drifts several percent between
  //     sections (observed: the same lint arm at -3% vs +74% against the
  //     stale baseline).
  //   - Numerator and denominator are min-of-repeats, not within-repeat
  //     paired ratios: a preemption slice inflates any single run by
  //     10-20%, and the min is the run with the least interference (the
  //     within-repeat median pairing that stabilizes the sub-5% probe
  //     gates measured the *same binary's* flight delta at 5.5%, 21.6%,
  //     and 12.0% across three invocations — pairing cancels drift, not
  //     outliers).
  //   - The direct estimates take the median across repeats of the
  //     profiler's record-path ns/event (itself preemption-filtered by
  //     iteration rejection, see prof.hpp) over the baseline minimum.
  //   - The run measures its own A/B noise floor: a *second identical
  //     baseline arm* interleaved with the others yields a null A/B delta
  //     (same binary vs itself, truth 0%), and the agreement gate widens
  //     by that floor. Even min-of-5 flight deltas measured 0.8%, 16.0%,
  //     and 23.5% across invocations on this box while the direct share
  //     sat at 13-15% — a fixed 5-point tolerance would gate on the
  //     neighbors' workload, not on the profiler.
  // Six extra arms, so only at the one cell where the gates live. The
  // arm set repeats at least 5 times regardless of --repeats: the mins
  // need a real chance to reach the interference floor.
  if (prof_arm && wheel.machines == 65'536 && wheel.ns_per_event > 0) {
    TraceCheckOptions lo;
    lo.d1 = microseconds(50);  // the flood workload's channel bounds
    lo.d2 = microseconds(200);
    lo.num_nodes = n;
    const int att_repeats = std::max(repeats, 5);
    std::vector<double> base_r, null_r, fl_r, li_r, fdir_r, ldir_r;
    for (int r = 0; r < att_repeats; ++r) {
      const Arm base = measure_sample("flood", n, kWheelArm, cell_target);
      const Arm base2 = measure_sample("flood", n, kWheelArm, cell_target);
      const Arm fl = measure_sample("flood", n, kWheelArm, cell_target,
                                    nullptr, nullptr, &fo);
      const Arm flp = measure_sample("flood", n, kWheelArm, cell_target,
                                     nullptr, nullptr, &fo, &po);
      const Arm li = measure_sample("flood", n, kWheelArm, cell_target, &lo);
      const Arm lip = measure_sample("flood", n, kWheelArm, cell_target, &lo,
                                     nullptr, nullptr, &po);
      base_r.push_back(base.ns_per_event);
      null_r.push_back(base2.ns_per_event);
      fl_r.push_back(fl.ns_per_event);
      li_r.push_back(li.ns_per_event);
      fdir_r.push_back(flp.prof_report.phase_ns_per_event(ProfPhase::kRecord) +
                       flp.prof_report.phase_ns_per_event(ProfPhase::kFlight));
      ldir_r.push_back(lip.prof_report.phase_ns_per_event(ProfPhase::kRecord) +
                       lip.prof_report.phase_ns_per_event(ProfPhase::kLint));
    }
    const double base_min = *std::min_element(base_r.begin(), base_r.end());
    row.attribution = true;
    row.ab_noise = std::abs(
        *std::min_element(null_r.begin(), null_r.end()) / base_min - 1);
    row.flight_ab = *std::min_element(fl_r.begin(), fl_r.end()) / base_min - 1;
    row.flight_direct = median(fdir_r) / base_min;
    row.lint_ab = *std::min_element(li_r.begin(), li_r.end()) / base_min - 1;
    row.lint_direct = median(ldir_r) / base_min;
  }
  row.wheel_cascades = wheel.stats.wheel.cascades;
  if (row.machines <= kLegacySweepCap) {
    for (int r = 0; r < repeats; ++r) {
      fold(legacy, measure_sample("flood", n, kLegacyArm, cell_target));
    }
    shape(legacy.events == wheel.events,
          "sweep n=" + std::to_string(n) +
              ": legacy polling executes the same event count");
    row.legacy_ns = legacy.ns_per_event;
  }
  std::printf("  %8d %9zu %9zu %14.1f", n, row.machines, row.events,
              row.sched_ns);
  if (row.legacy_ns > 0) {
    std::printf(" %14.1f", row.legacy_ns);
  } else {
    std::printf(" %14s", "-");
  }
  std::printf(" %10zu", static_cast<std::size_t>(row.wheel_cascades));
  if (flight_arm) {
    std::printf(" %13.1f %+7.1f%%", row.flight_ns,
                row.flight_overhead * 100.0);
  }
  if (prof_arm) {
    std::printf(" %11.1f %+7.1f%%", row.prof_ns, row.prof_overhead * 100.0);
  }
  std::printf("\n");
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                const std::vector<SweepRow>& sweep) {
  std::ofstream os(path);
  PSC_CHECK(os.good(), "cannot open " << path);
  for (const Row& r : rows) {
    os << "{\"bench\":\"bench_executor\",\"workload\":\"" << r.workload
       << "\",\"nodes\":" << r.nodes << ",\"machines\":" << r.machines
       << ",\"events\":" << r.events << ",\"legacy_ns_per_event\":"
       << r.legacy_ns << ",\"sched_ns_per_event\":" << r.sched_ns
       << ",\"speedup\":" << r.speedup
       << ",\"cache_hit_rate\":" << r.cache_hit_rate;
    if (r.lint_ns > 0) {
      os << ",\"lint_ns_per_event\":" << r.lint_ns
         << ",\"lint_overhead\":" << r.lint_overhead;
    }
    if (r.obs_ns > 0) {
      os << ",\"obs_ns_per_event\":" << r.obs_ns
         << ",\"obs_overhead\":" << r.obs_overhead;
      if (r.min_slack < kTimeMax) os << ",\"min_slack_ns\":" << r.min_slack;
    }
    if (r.cert_ns > 0) {
      os << ",\"cert_ns_per_event\":" << r.cert_ns
         << ",\"cert_overhead\":" << r.cert_overhead;
    }
    os << ",\"seed\":" << kSeed << "}\n";
  }
  for (const SweepRow& r : sweep) {
    os << "{\"bench\":\"bench_executor\",\"workload\":\"flood_sweep\","
       << "\"nodes\":" << r.nodes << ",\"machines\":" << r.machines
       << ",\"events\":" << r.events << ",\"sched_ns_per_event\":"
       << r.sched_ns;
    if (r.legacy_ns > 0) os << ",\"legacy_ns_per_event\":" << r.legacy_ns;
    if (r.flight_ns > 0) {
      os << ",\"flight_ns_per_event\":" << r.flight_ns
         << ",\"flight_overhead\":" << r.flight_overhead;
    }
    if (r.prof_ns > 0) {
      os << ",\"prof_ns_per_event\":" << r.prof_ns
         << ",\"prof_overhead\":" << r.prof_overhead;
    }
    os << ",\"wheel_cascades\":" << r.wheel_cascades
       << ",\"seed\":" << kSeed << "}\n";
  }
  // One `prof` line per profiled sweep cell: the scaled per-phase self-time
  // breakdown, and — at the 65,536-machine gate cell — the direct-vs-A/B
  // attribution cross-check the acceptance bar pins.
  for (const SweepRow& r : sweep) {
    if (!r.profiled) continue;
    const ProfReport& p = r.prof_report;
    os << "{\"bench\":\"bench_executor\",\"workload\":\"prof\",\"nodes\":"
       << r.nodes << ",\"machines\":" << r.machines << ",\"events\":"
       << p.events << ",\"sample_every\":" << p.sample_every
       << ",\"bracket_ticks\":" << p.bracket_ticks
       << ",\"rejected_iterations\":" << p.rejected_iterations
       << ",\"wall_ns_per_event\":"
       << (p.events > 0 ? p.wall_ns / static_cast<double>(p.events) : 0.0)
       << ",\"cpu_ns_per_event\":"
       << (p.events > 0 ? p.cpu_ns / static_cast<double>(p.events) : 0.0)
       << ",\"phase_sum_ns_per_event\":"
       << (p.events > 0 ? p.phase_total_ns() / static_cast<double>(p.events)
                        : 0.0)
       << ",\"phases\":{";
    for (std::size_t i = 0; i < p.phases.size(); ++i) {
      if (i > 0) os << ",";
      os << "\"" << p.phases[i].name << "\":"
         << (p.events > 0 ? p.phases[i].ns / static_cast<double>(p.events)
                          : 0.0);
    }
    os << "}";
    if (r.attribution) {
      // *_direct include the record phase the consumer's arm switches on;
      // lint_induced is the A/B remainder the brackets don't own — the
      // lint probe's cache pressure on baseline phases plus whatever A/B
      // noise survived min-of-repeats (informational; see the gate
      // comment for why lint's A/B delta is not gated).
      os << ",\"ab_noise\":" << r.ab_noise << ",\"flight_ab\":" << r.flight_ab
         << ",\"flight_direct\":" << r.flight_direct << ",\"lint_ab\":"
         << r.lint_ab << ",\"lint_direct\":" << r.lint_direct
         << ",\"lint_induced\":" << (r.lint_ab - r.lint_direct);
    }
    os << ",\"seed\":" << kSeed << "}\n";
  }
  note("\nresults written to " + path);
}

}  // namespace
}  // namespace psc::bench

int main(int argc, char** argv) {
  using namespace psc::bench;
  bool smoke = false;
  int repeats = 7;  // display = min-of-7; overhead = median of 7 paired ratios
  int target_events = 10'000;  // per-cell floor for the flood arm
  // PSC_BENCH_MAX_MACHINES / --max-machines caps the flood sweep so CI
  // boxes stay within their memory and time budget (0 skips the sweep).
  long max_machines = 1'048'576;
  if (const char* v = std::getenv("PSC_BENCH_MAX_MACHINES");
      v != nullptr && *v != '\0') {
    max_machines = std::atol(v);
  }
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      target_events = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-machines") == 0 && i + 1 < argc) {
      max_machines = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--repeats N] [--events N] "
                   "[--max-machines N] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) {
    repeats = 1;
    target_events = std::min(target_events, 2000);
    max_machines = std::min(max_machines, 4096L);
  }
  auto env_flag = [](const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
  };
  // PSC_LINT=1: add a third arm per config — the scheduler loop with an
  // online invariant checker attached — and gate its overhead.
  const bool lint_arm = env_flag("PSC_LINT");
  // PSC_OBS=1: same idea for the bound-slack observatory + time series.
  const bool obs_arm = env_flag("PSC_OBS");
  // PSC_CERT=1: same idea for the certificate probe — each delivery is
  // checked against its statically derived per-edge window (the PSC206
  // lane), with harvesting kept outside the timed span.
  const bool cert_arm = env_flag("PSC_CERT");
  // PSC_FLIGHT=1: add a flight-recorder arm to the flood sweep — the
  // always-on binary ring on the record path — and gate its overhead at
  // million-machine scale (see the sweep section).
  const bool flight_arm = env_flag("PSC_FLIGHT");
  // PSC_PROFILE=1: add a microprofiler arm to the flood sweep — the wheel
  // scheduler with sampling per-phase cycle attribution — print its
  // self-time table at the largest profiled cell, and gate both its
  // overhead and its internal consistency (phase sum vs wall, direct vs
  // A/B attribution). Any value other than "1" doubles as the output path
  // for flamegraph.pl-compatible folded stacks; PSC_PROFILE=1 with --json
  // writes them next to the JSON as <json>.folded.
  const bool prof_arm = env_flag("PSC_PROFILE");
  std::string folded_path;
  if (prof_arm) {
    const char* v = std::getenv("PSC_PROFILE");
    if (v != nullptr && std::strcmp(v, "1") != 0) folded_path = v;
  }
  // PSC_PROF_SAMPLE=N overrides the profiled sweep arm's sampling period,
  // matching the documented contract for the harness-based benches
  // (bench/common.hpp).
  if (const char* v = std::getenv("PSC_PROF_SAMPLE");
      v != nullptr && *v != '\0') {
    const long n = std::atol(v);
    if (n > 0) g_prof_sample = static_cast<std::uint32_t>(n);
  }

  banner("executor scheduler: calendar/dirty-set loop vs legacy polling");
  note("min-of-" + std::to_string(repeats) +
       " ns/event, probe overheads = median within-repeat ratio (arms "
       "interleaved per repeat; the sweep's flight arm uses the min-ratio), "
       "fixed seed, run() only (assembly excluded)");
  std::printf("  %-6s %5s %9s %8s %14s %14s %9s %6s", "work", "n",
              "machines", "events", "legacy ns/ev", "sched ns/ev", "speedup",
              "cache");
  if (lint_arm) std::printf(" %12s %8s", "lint ns/ev", "lint ovh");
  if (obs_arm) std::printf(" %12s %8s", "obs ns/ev", "obs ovh");
  if (cert_arm) std::printf(" %12s %8s", "cert ns/ev", "cert ovh");
  std::printf("\n");

  std::vector<int> flood_nodes =
      smoke ? std::vector<int>{4, 8}
            : std::vector<int>{4, 8, 16, 32, 64, 128, 256, 512};
  std::vector<int> queue_nodes =
      smoke ? std::vector<int>{3} : std::vector<int>{3, 6, 12, 16, 24, 32};

  std::vector<Row> rows;
  for (int n : flood_nodes) {
    rows.push_back(run_config("flood", n, repeats, target_events, lint_arm,
                              obs_arm, cert_arm));
  }
  for (int n : queue_nodes) {
    rows.push_back(run_config("queue", n, repeats, target_events, lint_arm,
                              obs_arm, cert_arm));
  }

  // The PR's acceptance bar: >= 3x ns/event at >= 128 machines. Smoke runs
  // stay below that scale on purpose (CI boxes are noisy); the full sweep
  // enforces it.
  if (!smoke) {
    for (const Row& r : rows) {
      if (r.machines >= 128) {
        shape(r.speedup >= 3.0,
              r.workload + " n=" + std::to_string(r.nodes) + " (" +
                  std::to_string(r.machines) + " machines): speedup " +
                  std::to_string(r.speedup) + " >= 3x");
      }
    }
  }
  // Probe-overhead acceptance: < 5% ns/event on the big configs (small
  // ones are timer-noise-bound). Per cell the overhead is the median
  // within-repeat ratio (paired_overhead above); binary code layout still
  // shifts a cell by a few percent between builds, so the 5% bar applies
  // to the median across the gated cells — both sweeps pass 128 machines
  // (flood at n >= 64, queue at n >= 12) and both top 1000 machines, so
  // the gated set samples flood's ~400ns/event cells and queue's
  // ~1.5us/event cells evenly — and each individual cell gets a 15% cap
  // that any real per-event regression (a deep copy, a map lookup — both
  // seen here before) blows through on every cell at once. Skipped in
  // smoke runs — single repeats on loaded CI boxes are too noisy to gate
  // on.
  auto gate_overhead = [&](const char* label,
                           double (*overhead)(const Row&)) {
    std::vector<double> gated;
    for (const Row& r : rows) {
      if (r.machines < 128) continue;
      const double ovh = overhead(r);
      gated.push_back(ovh);
      shape(ovh < 0.15, r.workload + " n=" + std::to_string(r.nodes) + ": " +
                            label + " probe overhead " +
                            std::to_string(ovh * 100.0) + "% < 15% cap");
    }
    if (gated.empty()) return;
    const double med = median(gated);
    shape(med < 0.05, std::string(label) +
                          " probe overhead, median across " +
                          std::to_string(gated.size()) + " gated cells: " +
                          std::to_string(med * 100.0) + "% < 5%");
  };
  if (lint_arm && !smoke) {
    gate_overhead("lint", [](const Row& r) { return r.lint_overhead; });
  }
  // Same bar for the observatory probes, plus the flood arm must now run at
  // benchmark-grade length (>= the requested per-cell event floor).
  if (!smoke) {
    for (const Row& r : rows) {
      if (r.workload == "flood") {
        shape(r.events >= static_cast<std::size_t>(target_events),
              "flood n=" + std::to_string(r.nodes) + ": " +
                  std::to_string(r.events) + " events >= " +
                  std::to_string(target_events));
      }
    }
  }
  if (obs_arm && !smoke) {
    gate_overhead("observatory", [](const Row& r) { return r.obs_overhead; });
  }
  if (cert_arm && !smoke) {
    gate_overhead("certificate",
                  [](const Row& r) { return r.cert_overhead; });
  }

  // --- flood sweep: 1k -> 1M machines --------------------------------------
  std::vector<SweepRow> sweep;
  {
    std::vector<int> sweep_nodes;
    for (int n : {512, 2048, 8192, 32'768, 131'072, 524'288}) {
      if (2L * n <= max_machines) sweep_nodes.push_back(n);
    }
    if (!sweep_nodes.empty()) {
      banner("flood sweep: scheduler cost vs registered machines");
      note("min ns/event per arm (wheel = default scheduler), equal "
           "events-per-machine budget per cell; legacy polling capped at " +
           std::to_string(kLegacySweepCap) +
           " machines; cap via PSC_BENCH_MAX_MACHINES / --max-machines");
      std::printf("  %8s %9s %9s %14s %14s %10s", "n", "machines", "events",
                  "wheel ns/ev", "legacy ns/ev", "cascades");
      if (flight_arm) std::printf(" %13s %8s", "flight ns/ev", "fly ovh");
      if (prof_arm) std::printf(" %11s %8s", "prof ns/ev", "prof ovh");
      std::printf("\n");
      // Floor of 3: the flight/profiler overhead gates at the big cells
      // compare min-of-repeats ratios, and with only 2 draws per arm a
      // single preempted run leaves the min ~15 points above the real
      // floor (observed: the same binary's 65k flight overhead at 6%..37%
      // across min-of-2 invocations, against a 25% gate).
      const int sweep_repeats = smoke ? 1 : std::max(3, repeats / 2);
      for (int n : sweep_nodes) {
        sweep.push_back(run_sweep_cell(n, sweep_repeats, target_events,
                                       flight_arm, prof_arm));
      }
      // The memory-flatness gate: the wheel's per-event cost at 65,536
      // machines stays within 2x of its cost at 1,024 machines. Needs both
      // cells in the sweep; smoke runs stay below that scale.
      if (!smoke) {
        const SweepRow* base = nullptr;
        const SweepRow* big = nullptr;
        for (const SweepRow& r : sweep) {
          if (r.machines == 1024) base = &r;
          if (r.machines == 65'536) big = &r;
        }
        if (base != nullptr && big != nullptr) {
          shape(big->sched_ns <= 2.0 * base->sched_ns,
                "sweep: wheel ns/event at 65536 machines (" +
                    std::to_string(big->sched_ns) + ") <= 2x its value at "
                    "1024 machines (" + std::to_string(base->sched_ns) + ")");
        }
        // The flight-recorder acceptance bar. The issue's design target was
        // < 3% over the bare wheel, but that is below the measured cost of
        // merely enabling the executor's event sink (~2%: TimedEvent scalar
        // fills with no consumer), and below the online lint probe (~9% at
        // this cell) — 3% of a ~370 ns/event loop is ~11 ns, less than one
        // 128-byte record's stores. The design (kind memo + in-slot
        // assembly + LLC-resident ring) measured ~18% here while it also fed
        // three latency histograms, vs ~78% for the record_events TimedEvent
        // stream the recorder replaces — so the gate is set at 25%: green
        // at the measured floor with noise margin, and a
        // tripwire for regressions of the kind it exists to catch (the
        // pre-optimization recorder measured ~70%). Small cells are
        // timer-noise-bound, so the gate starts at 65,536 machines (the
        // same threshold as the memory-flatness gate).
        //
        // Above 262,144 machines the bound is 50%. It was set while the
        // recorder also matched latencies: its last-event times (8 B/machine)
        // and in-flight uid map passed 10 MB, and every messaging event paid
        // DRAM-random probes the bare scheduler does not (measured +30% at
        // 1,048,576 machines vs +19% at 65,536). The recorder now keeps no
        // per-machine or per-message state (the ring stays 1 MB), but the
        // bound stays until those cells are measured again: still a
        // regression tripwire (pre-optimization was ~70% even at LLC scale)
        // without gating on the box's DRAM latency.
        if (flight_arm) {
          for (const SweepRow& r : sweep) {
            if (r.machines < 65'536) continue;
            const double bound = r.machines > 262'144 ? 0.50 : 0.25;
            shape(r.flight_overhead < bound,
                  "sweep " + std::to_string(r.machines) +
                      " machines: flight recorder overhead " +
                      std::to_string(r.flight_overhead * 100.0) + "% < " +
                      std::to_string(static_cast<int>(bound * 100)) + "%");
          }
        }
        // The microprofiler's acceptance bars. (1) Cost: at default
        // sampling the profiled wheel stays within 10% of the bare wheel
        // at the gate scale (above 262,144 machines the same DRAM-bound
        // slack as the flight gate applies — timing reads amortize but the
        // baseline cell itself gets noisier, so 15%). (2) Conservation:
        // the per-phase self-times must explain the run — their sum lands
        // in 90-120% of the profiled run's own thread CPU time, or the
        // table is attributing cycles to nobody / double-counting. Two
        // corrections make that window honest (both measured, see
        // prof.hpp): the calibrated per-bracket timer cost is subtracted
        // (uncorrected it alone pushed sums 11% past the wall here), and
        // preemption-torn sampled iterations are rejected while the
        // denominator is CPU time, not wall (uncorrected, stolen CPU
        // slices scaled by sample_every swung coverage 94%..131% between
        // identical runs). The window is asymmetric because the residual
        // errors only push up: calibration is a min-estimate (so the
        // subtracted bracket cost is a lower bound of the true cost),
        // and preemption slices below the rejection threshold still get
        // multiplied by sample_every. Across ten runs on this box the
        // corrected coverage landed 101%..113%, so 120% is the ceiling
        // the methodology supports; the loop framing (begin_iteration,
        // the stop_when test, the countdown) stays deliberately
        // unbracketed, which keeps the floor at 90%. (3) Attribution: the direct
        // record-path measurement
        // (kRecord + the consumer's own phase — attaching a consumer also
        // enables the event sink the bare arm never pays for) is compared
        // against the indirect A/B-arm delta. For the flight recorder the
        // two must agree within 5 points: its working set is the
        // LLC-resident ring, so the A/B delta *is* the record path. The
        // lint probe's in-flight message map spans 65k channels, so its
        // arm's run time is dominated by cache layout luck — even paired
        // within-repeat, the same binary's lint A/B delta was observed at
        // -3%, +4%, and +74% across runs, a spread wider than the quantity
        // being measured — so lint's A/B delta is *reported* (lint_ab,
        // lint_induced in the JSON) but not gated; the gated check is that
        // the direct record-path share is positive (the brackets really
        // measured the probe).
        if (prof_arm) {
          for (const SweepRow& r : sweep) {
            if (r.machines < 65'536) continue;
            const double bound = r.machines > 262'144 ? 0.15 : 0.10;
            shape(r.prof_overhead < bound,
                  "sweep " + std::to_string(r.machines) +
                      " machines: profiler overhead at default sampling " +
                      std::to_string(r.prof_overhead * 100.0) + "% < " +
                      std::to_string(static_cast<int>(bound * 100)) + "%");
            if (!r.profiled || r.prof_report.cpu_ns <= 0) continue;
            const double cover =
                r.prof_report.phase_total_ns() / r.prof_report.cpu_ns;
            shape(cover > 0.90 && cover < 1.20,
                  "sweep " + std::to_string(r.machines) +
                      " machines: profiled phases cover " +
                      std::to_string(cover * 100.0) +
                      "% of the run's thread CPU time (within 90-120%)");
          }
          for (const SweepRow& r : sweep) {
            if (!r.attribution) continue;
            const double tol = 0.05 + r.ab_noise;
            shape(std::abs(r.flight_direct - r.flight_ab) <= tol,
                  "attribution " + std::to_string(r.machines) +
                      " machines: direct flight share " +
                      std::to_string(r.flight_direct * 100.0) +
                      "% within 5 points of A/B delta " +
                      std::to_string(r.flight_ab * 100.0) +
                      "% (+ measured A/B noise floor " +
                      std::to_string(r.ab_noise * 100.0) + "%)");
            shape(r.lint_direct > 0,
                  "attribution " + std::to_string(r.machines) +
                      " machines: direct lint share " +
                      std::to_string(r.lint_direct * 100.0) +
                      "% is measured (> 0); A/B delta " +
                      std::to_string(r.lint_ab * 100.0) +
                      "% reported, not gated (noise-dominated)");
          }
        }
      }
      // The self-time table for the largest profiled cell: direct per-phase
      // measurement replacing the indirect A/B overhead arithmetic.
      if (prof_arm) {
        const SweepRow* top = nullptr;
        for (const SweepRow& r : sweep) {
          if (r.profiled) top = &r;
        }
        if (top != nullptr) {
          banner("executor self-time (microprofiler, " +
                 std::to_string(top->machines) + " machines)");
          write_prof_table(std::cout, top->prof_report);
          if (top->attribution) {
            std::printf(
                "  attribution cross-check (record path incl.): flight "
                "direct %+.1f%% vs A/B %+.1f%%; lint direct %+.1f%% vs A/B "
                "%+.1f%% (not gated); A/B noise floor %.1f%%\n",
                top->flight_direct * 100.0, top->flight_ab * 100.0,
                top->lint_direct * 100.0, top->lint_ab * 100.0,
                top->ab_noise * 100.0);
          }
          if (folded_path.empty() && !json_path.empty()) {
            folded_path = json_path + ".folded";
          }
          if (!folded_path.empty()) {
            std::ofstream fs(folded_path);
            PSC_CHECK(fs.good(), "cannot open " << folded_path);
            write_folded(fs, top->prof_report);
            note("folded stacks written to " + folded_path +
                 " (flamegraph.pl-compatible)");
          }
        }
      }
    }
  }

  shape(g_repeat_mismatches == 0,
        "every arm's repeats execute identical event counts and "
        "ExecutorStats (" + std::to_string(g_repeat_pairs) +
            " repeat pairs compared)");
  if (!json_path.empty()) write_json(json_path, rows, sweep);
  return finish();
}
