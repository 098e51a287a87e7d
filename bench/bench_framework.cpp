// E10 — framework microbenchmarks (google-benchmark).
//
// Measures the substrate itself: executor event throughput on the register
// system in each model, linearizability-checker cost (Wing-Gong search vs
// the O(n log n) witness check), trace-relation checking, clock
// trajectory queries (mixed, and each query alone on the benchmark's clock),
// the benchmark's per-node clock set-up, the executor's re-poll of one
// Simulation 1 node after one input, one MMT node step, the wake
// calendar's re-poll/advance cycle, the primitives under the scheduler
// and the online checkers — the non-empty-slot bitset, the uid ledger, the
// window meter's per-event measure and the slack histogram's add — and
// each online checker replayed over a recorded run. These are the costs a
// user of the library pays.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <numeric>

#include "analysis/bounds.hpp"
#include "analysis/meter.hpp"
#include "analysis/trace_check.hpp"
#include "analysis/uid_index.hpp"
#include "clock/trajectory.hpp"
#include "core/relations.hpp"
#include "mmt/mmt_node.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/probes.hpp"
#include "rw/algorithm.hpp"
#include "rw/harness.hpp"
#include "runtime/wheel.hpp"
#include "transform/clock_system.hpp"
#include "transform/gamma.hpp"
#include "util/hier_bitset.hpp"
#include "util/rng.hpp"

namespace psc {
namespace {

RwRunConfig bench_config() {
  RwRunConfig cfg;
  cfg.num_nodes = 3;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(300);
  cfg.eps = microseconds(50);
  cfg.c = microseconds(40);
  cfg.super = true;
  cfg.ops_per_node = 20;
  cfg.think_max = microseconds(200);
  cfg.horizon = seconds(30);
  return cfg;
}

void BM_TimedSystemRun(benchmark::State& state) {
  RwRunConfig cfg = bench_config();
  cfg.num_nodes = static_cast<int>(state.range(0));
  std::size_t events = 0;
  for (auto _ : state) {
    cfg.seed++;
    const auto run = run_rw_timed(cfg);
    events += run.events.size();
    benchmark::DoNotOptimize(run.ops.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("events/iter=" +
                 std::to_string(events / std::max<std::size_t>(
                                             1, state.iterations())));
}
BENCHMARK(BM_TimedSystemRun)->Arg(2)->Arg(4)->Arg(8);

void BM_ClockSystemRun(benchmark::State& state) {
  RwRunConfig cfg = bench_config();
  cfg.num_nodes = static_cast<int>(state.range(0));
  ZigzagDrift drift(0.25);
  std::size_t events = 0;
  for (auto _ : state) {
    cfg.seed++;
    const auto run = run_rw_clock(cfg, drift);
    events += run.events.size();
    benchmark::DoNotOptimize(run.ops.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ClockSystemRun)->Arg(2)->Arg(4)->Arg(8);

void BM_MmtSystemRun(benchmark::State& state) {
  RwRunConfig cfg = bench_config();
  cfg.ops_per_node = 8;
  PerfectDrift drift;
  std::size_t events = 0;
  for (auto _ : state) {
    cfg.seed++;
    const auto run =
        run_rw_mmt(cfg, drift, /*ell=*/microseconds(state.range(0)),
                   /*k=*/cfg.num_nodes + 2);
    events += run.events.size();
    benchmark::DoNotOptimize(run.ops.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_MmtSystemRun)->Arg(5)->Arg(50);

std::vector<Operation> sequential_history(int n) {
  std::vector<Operation> ops;
  Time t = 0;
  for (int k = 0; k < n / 2; ++k) {
    ops.push_back({0, Operation::Kind::kWrite, k + 1, t, t + 1});
    ops.push_back({1, Operation::Kind::kRead, k + 1, t + 2, t + 3});
    t += 4;
  }
  return ops;
}

// One Wing-Gong search of `ops` per iteration (each history is
// linearizable). Labels the bench with the states one search enters and
// reports `ns_per_state`: wall ns per entered state, timed around the
// search alone.
void search_bench(benchmark::State& state, const std::vector<Operation>& ops) {
  std::size_t states = 0;
  std::chrono::nanoseconds spent{0};
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const auto r = check_linearizable(ops, 0);
    spent += std::chrono::steady_clock::now() - start;
    benchmark::DoNotOptimize(r.ok);
    if (!r) state.SkipWithError("generated history rejected");
    states = r.states;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ops.size()));
  state.counters["ns_per_state"] =
      static_cast<double>(spent.count()) /
      static_cast<double>(std::max<std::size_t>(
          1, states * static_cast<std::size_t>(state.iterations())));
  state.SetLabel("states=" + std::to_string(states));
}

void BM_WingGongSequential(benchmark::State& state) {
  search_bench(state, sequential_history(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_WingGongSequential)->Arg(16)->Arg(64)->Arg(256)->Arg(8192);

void BM_WingGongConcurrent(benchmark::State& state) {
  // Overlapping ops from several procs: the hard case for the search.
  std::vector<Operation> ops;
  const int per_proc = static_cast<int>(state.range(0));
  for (int p = 0; p < 4; ++p) {
    Time t = static_cast<Time>(p);  // offset so intervals interleave
    for (int k = 0; k < per_proc; ++k) {
      const std::int64_t v = (static_cast<std::int64_t>(p) << 32) | k;
      ops.push_back({p, Operation::Kind::kWrite, v, t, t + 6});
      t += 4;
    }
  }
  search_bench(state, ops);
}
BENCHMARK(BM_WingGongConcurrent)->Arg(4)->Arg(8);

// A history shaped like psc_bench's rw_clock_reads: `procs` closed-loop
// clients of `per_proc` ops each, 20% writes (~400 units) among reads (~150
// units) with think times U[0, 200], so every op overlaps ops of other
// procs. Values come from linearizing each op at a random point inside its
// interval. Ops are listed client by client, as the rw harness collects
// them, so the search backtracks.
void BM_WingGongConcurrent(benchmark::State& state, int procs, int per_proc) {
  Rng rng(7);
  std::vector<Operation> ops;
  std::vector<Time> points;
  for (int p = 0; p < procs; ++p) {
    Time t = rng.uniform(0, 200);
    for (int k = 0; k < per_proc; ++k) {
      const bool write = rng.flip(0.2);
      const Time res = t + (write ? 400 : 150) + rng.uniform(0, 20);
      ops.push_back({p, write ? Operation::Kind::kWrite
                              : Operation::Kind::kRead,
                     write ? (std::int64_t{p} << 32) | k : 0, t, res});
      points.push_back(rng.uniform(t, res));
      t = res + rng.uniform(0, 200);
    }
  }
  std::vector<std::size_t> order(ops.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return points[a] < points[b];
  });
  std::int64_t value = 0;
  for (const std::size_t k : order) {
    if (ops[k].kind == Operation::Kind::kWrite) {
      value = ops[k].value;
    } else {
      ops[k].value = value;
    }
  }
  search_bench(state, ops);
}
BENCHMARK_CAPTURE(BM_WingGongConcurrent, rw_clock_reads, 8, 1024)
    ->Unit(benchmark::kMillisecond);

void BM_WitnessCheck(benchmark::State& state) {
  const auto ops = sequential_history(static_cast<int>(state.range(0)));
  std::vector<Time> points;
  points.reserve(ops.size());
  for (const auto& op : ops) points.push_back(op.inv);
  for (auto _ : state) {
    const auto r = check_with_points(ops, points, 0);
    benchmark::DoNotOptimize(r.ok);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ops.size()));
}
BENCHMARK(BM_WitnessCheck)->Arg(256)->Arg(4096);

void BM_EqWithinRelation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TimedTrace a;
  for (int k = 0; k < n; ++k) {
    TimedEvent e;
    e.action = make_action(k % 2 ? "X" : "Y", k % 4);
    e.time = k * 10;
    a.push_back(e);
  }
  TimedTrace b = a;
  for (auto& e : b) e.time += 3;
  const auto kappa = per_node_classes(4);
  for (auto _ : state) {
    const auto r = eq_within(a, b, 5, kappa);
    benchmark::DoNotOptimize(r.related);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EqWithinRelation)->Arg(64)->Arg(1024);

void BM_TrajectoryQueries(benchmark::State& state) {
  Rng rng(7);
  RandomDrift drift(0.2, microseconds(500));
  const auto traj = drift.generate(microseconds(100), seconds(10), rng);
  Time t = 0;
  for (auto _ : state) {
    t = (t + 37'123) % seconds(10);
    benchmark::DoNotOptimize(traj.clock_at(t));
    benchmark::DoNotOptimize(traj.time_first_at(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrajectoryQueries);

// One node's clock set-up in the benchmark workloads: generate the
// ZigzagDrift(0.25) clock at eps = 50us over 30s and validate it.
void BM_ZigzagGenerate(benchmark::State& state) {
  Rng rng(1);
  const ZigzagDrift drift(0.25);
  for (auto _ : state) {
    const auto traj = drift.generate(microseconds(50), seconds(30), rng);
    traj.validate(seconds(30));
    benchmark::DoNotOptimize(traj.points().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZigzagGenerate);

// One clock query at a time on the clock behind the rw_clock_reads
// workload: ZigzagDrift(0.25), eps = 50us, 30s horizon (~83k breakpoints
// expanded),
// with the argument stepping monotonically through the first second as a
// Simulation 1 node's deadlines do.
enum class ClockQuery { kClockAt, kTimeFirstAt, kTimeLastAt };

void BM_TrajectoryInverse(benchmark::State& state, ClockQuery query) {
  Rng rng(1);
  const auto traj =
      ZigzagDrift(0.25).generate(microseconds(50), seconds(30), rng);
  Time x = 0;
  for (auto _ : state) {
    x = (x + 37'123) % seconds(1);
    switch (query) {
      case ClockQuery::kClockAt:
        benchmark::DoNotOptimize(traj.clock_at(x));
        break;
      case ClockQuery::kTimeFirstAt:
        benchmark::DoNotOptimize(traj.time_first_at(x));
        break;
      case ClockQuery::kTimeLastAt:
        benchmark::DoNotOptimize(traj.time_last_at(x));
        break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_TrajectoryInverse, clock_at, ClockQuery::kClockAt);
BENCHMARK_CAPTURE(BM_TrajectoryInverse, time_first_at,
                  ClockQuery::kTimeFirstAt);
BENCHMARK_CAPTURE(BM_TrajectoryInverse, time_last_at,
                  ClockQuery::kTimeLastAt);

// The executor's re-poll of one Simulation 1 node after one buffer input,
// on the rw_clock_reads node shape: Algorithm S with 8 send and 8 receive
// buffers under ZigzagDrift(0.25), eps = 50us. Each iteration advances time
// by 1us, applies one ERECVMSG to the next receive buffer (tagged 20ms
// ahead, so the buffer holds it), then re-polls what the flush would: the
// parts the input touched, each for its candidates, next_enabled and
// upper_bound. Every 128 inputs the node is rebuilt outside the timer, so
// no buffer holds more than 16 messages.
void BM_ClockNodePoll(benchmark::State& state) {
  constexpr int kPeers = 8;
  constexpr int kRebuild = 128;
  Rng rng(1);
  const auto traj = std::make_shared<const ClockTrajectory>(
      ZigzagDrift(0.25).generate(microseconds(50), seconds(30), rng));
  std::vector<int> peers(kPeers);
  std::iota(peers.begin(), peers.end(), 0);
  RwParams params;
  params.num_nodes = kPeers;
  params.c = microseconds(40);
  params.d2_prime = timed_d2(microseconds(300), microseconds(50));
  params.two_eps = microseconds(100);
  const auto build = [&] {
    return make_clock_node(std::make_unique<RwAlgorithm>(params), 0, peers,
                           peers, traj);
  };
  std::vector<Action> inputs;
  for (int j = 0; j < kPeers; ++j) {
    const Value v{std::int64_t{1}};
    inputs.push_back(
        make_recv(0, j, make_message("UPDATE", {v}), "ERECVMSG"));
  }
  auto node = build();
  std::vector<Candidates> cands(node->part_count());
  std::vector<std::uint32_t> touched;
  Time t = 0;
  int k = 0;
  for (auto _ : state) {
    if (k == kRebuild) {
      state.PauseTiming();
      node = build();
      k = 0;
      if (t > seconds(29)) t = 0;
      state.ResumeTiming();
    }
    t += microseconds(1);
    Action& in = inputs[static_cast<std::size_t>(k % kPeers)];
    in.msg->clock_tag = t + milliseconds(20);
    node->apply_input(in, t);
    touched.clear();
    node->take_touched_parts(touched);
    for (const std::uint32_t p : touched) {
      node->part_enabled_into(p, t, cands[p]);
      benchmark::DoNotOptimize(node->part_next_enabled(p, t));
      benchmark::DoNotOptimize(node->part_upper_bound(p, t));
    }
    benchmark::ClobberMemory();
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClockNodePoll);

// One TICK + MMTSTEP pair on an idle 4-peer rw MMT node (Algorithm S with
// 4 send and 4 receive buffers inside M(., ell)), as the executor drives it:
// each iteration advances real time by ell under a perfect clock, delivers
// TICK(now), re-polls the node, performs the step it offers and re-polls
// again. On rw_mmt_writes about 95% of MMT steps are such silent taus.
void BM_MmtNodeStep(benchmark::State& state) {
  constexpr int kPeers = 4;
  const Duration ell = microseconds(5);
  std::vector<int> peers(kPeers);
  std::iota(peers.begin(), peers.end(), 0);
  RwParams params;
  params.num_nodes = kPeers;
  params.c = microseconds(40);
  params.d2_prime = microseconds(500);
  params.two_eps = microseconds(100);
  MmtNode node(0,
               make_node_composite(std::make_unique<RwAlgorithm>(params), 0,
                                   peers, peers),
               ell, Rng(1));
  Action tick = make_action("TICK", 0, {Value{std::int64_t{0}}});
  Candidates cands;
  Time t = 0;
  for (auto _ : state) {
    t += ell;
    tick.args.clear();
    tick.args.emplace_back(t);
    node.apply_input(tick, t);
    node.enabled_into(t, cands);
    benchmark::DoNotOptimize(node.next_enabled(t));
    node.apply_local(cands[0], t);
    node.enabled_into(t, cands);
    benchmark::DoNotOptimize(node.next_enabled(t));
    benchmark::DoNotOptimize(node.upper_bound(t));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MmtNodeStep);

// The executor's wake-calendar cycle on a system that is idle between
// wakes (the MMT idle step): each iteration takes the earliest wake,
// advances the wheel to it, files every slot that came due a random step
// gap in [ell/4, ell] later, and moves one more random slot's wake, as an
// input re-polling a slot before its wake is due would. The argument is
// the slot count: 28 is rw_mmt_writes' executor, 65,536 the flood sweep's
// top scale.
void BM_WheelRepollAdvance(benchmark::State& state) {
  const auto slots = static_cast<std::uint32_t>(state.range(0));
  const Duration ell = microseconds(10);
  Rng rng(1);
  TimingWheel wheel;
  WheelStats st;
  const auto refile = [&](std::uint32_t s, Time now) {
    wheel.set(s, now + rng.uniform(ell / 4, ell), st);
  };
  wheel.reset(0, slots);
  for (std::uint32_t s = 0; s < slots; ++s) refile(s, 0);
  std::vector<std::uint32_t> due;
  for (auto _ : state) {
    const Time now = wheel.earliest();
    due.clear();
    wheel.advance_to(now, [&due](std::uint32_t s) { due.push_back(s); }, st);
    for (const std::uint32_t s : due) refile(s, now);
    refile(static_cast<std::uint32_t>(rng.index(slots)), now);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WheelRepollAdvance)->Arg(28)->Arg(65536);

// The executor's set of slots with candidates: each iteration sets or
// clears one random slot, as a re-poll does, and finds the first set slot
// at or after a random one, as the pick's walk does. The argument is the
// slot count (28: rw_mmt_writes' executor; 2^20: the flood sweep's top).
void BM_HierBitset(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  HierBitset bits;
  bits.assign(n);
  for (std::size_t i = 0; i < n; i += 8) bits.set(i);
  for (auto _ : state) {
    const std::size_t i = rng.index(n);
    if (bits.test(i)) {
      bits.reset(i);
    } else {
      bits.set(i);
    }
    benchmark::DoNotOptimize(bits.next_set(rng.index(n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierBitset)->Arg(28)->Arg(65536)->Arg(1 << 20);

// The window meter's message ledger: each iteration records the next uid
// (a send) and looks up one of the last `window` uids (a delivery leg).
// The ledger starts over every 2^16 uids, so memory stays bounded; the
// argument is the in-flight window.
void BM_UidIndex(benchmark::State& state) {
  struct Record {
    Time sent = -1;
  };
  constexpr std::uint64_t kUids = std::uint64_t{1} << 16;
  const auto window = static_cast<std::uint64_t>(state.range(0));
  Rng rng(1);
  UidIndex<Record> ledger;
  std::uint64_t next = 1;
  for (auto _ : state) {
    if (next > kUids) {
      ledger = UidIndex<Record>{};
      next = 1;
    }
    ledger[next].sent = static_cast<Time>(next);
    const std::uint64_t back = rng.index(std::min(window, next));
    benchmark::DoNotOptimize(ledger.find(next - back));
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UidIndex)->Arg(16)->Arg(4096);

// WindowMeter::measure, the per-event pass every online checker makes, on
// a recorded register run: one event per iteration, cycling through the
// trace with one meter (later passes re-measure the same uids).
enum class MeterTrace { kClock, kMmt };

void BM_WindowMeterMeasure(benchmark::State& state, MeterTrace model) {
  RwRunConfig cfg = bench_config();
  cfg.ops_per_node = 8;
  const ZigzagDrift drift(0.25);
  const RwRunResult run =
      model == MeterTrace::kClock
          ? run_rw_clock(cfg, drift)
          : run_rw_mmt(cfg, drift, microseconds(5), cfg.num_nodes + 2);
  const TimedTrace& events = run.events;
  WindowMeter meter;
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&meter.measure(events[k]));
    if (++k == events.size()) k = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("events=" + std::to_string(events.size()));
}
BENCHMARK_CAPTURE(BM_WindowMeterMeasure, rw_clock, MeterTrace::kClock);
BENCHMARK_CAPTURE(BM_WindowMeterMeasure, rw_mmt, MeterTrace::kMmt);

// The online checkers replayed over a recorded register run (the runs
// BM_WindowMeterMeasure cycles through, small enough to stay in cache):
// one iteration is one pass over the trace with freshly built checkers
// (built outside the timing), so every pass is a faithful replay. Each
// checker alone measures with its own meter, as behind a forwarding
// probe; kAll is the executor's shape, one measure per event handed to
// all four.
enum class Checker { kInvariant, kCert, kSlack, kLatency, kAll };

void BM_CheckerReplay(benchmark::State& state, Checker which,
                      MeterTrace model) {
  RwRunConfig cfg = bench_config();
  cfg.ops_per_node = 8;
  const ZigzagDrift drift(0.25);
  const bool mmt = model == MeterTrace::kMmt;
  const Duration ell = microseconds(5);
  RwAssembly a = mmt ? assemble_rw_mmt(cfg, drift, ell, cfg.num_nodes + 2)
                     : assemble_rw_clock(cfg, drift);
  a.exec->run();
  const TimedTrace& events = a.exec->events();
  const std::vector<const Machine*> machines = a.exec->composition();
  TraceCheckOptions tco;
  tco.eps = cfg.eps;
  tco.d1 = cfg.d1;
  tco.d2 = cfg.d2;
  tco.ell = mmt ? ell : -1;
  tco.num_nodes = cfg.num_nodes;
  BoundCertOptions bco;
  bco.eps = cfg.eps;
  bco.d1 = cfg.d1;
  bco.d2 = cfg.d2;
  bco.ell = tco.ell;
  const SlackOptions so{
      .eps = cfg.eps, .d1 = cfg.d1, .d2 = cfg.d2, .ell = tco.ell};
  for (auto _ : state) {
    state.PauseTiming();
    MetricsRegistry reg;
    InvariantProbe lint(tco);
    CertificateProbe cert(bco);
    cert.harvest(machines);
    BoundSlackProbe slack(reg, so);
    ChannelLatencyProbe latency(reg, cfg.d1, cfg.d2);
    MeteredProbe* const one[] = {&lint, &cert, &slack, &latency};
    WindowMeter meter(/*mmt_gaps=*/mmt);
    state.ResumeTiming();
    if (which == Checker::kAll) {
      for (const TimedEvent& e : events) {
        const Machine& owner = *machines[static_cast<std::size_t>(e.owner)];
        const Measurement& m = meter.measure(e);
        for (MeteredProbe* p : one) p->on_measured(e, m, owner);
      }
    } else {
      MeteredProbe* const p = one[static_cast<std::size_t>(which)];
      for (const TimedEvent& e : events) {
        p->on_event(e, *machines[static_cast<std::size_t>(e.owner)]);
      }
    }
    benchmark::DoNotOptimize(slack.min_slack());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
  state.SetLabel("events=" + std::to_string(events.size()));
}
BENCHMARK_CAPTURE(BM_CheckerReplay, invariant_rw_clock, Checker::kInvariant,
                  MeterTrace::kClock);
BENCHMARK_CAPTURE(BM_CheckerReplay, cert_rw_clock, Checker::kCert,
                  MeterTrace::kClock);
BENCHMARK_CAPTURE(BM_CheckerReplay, slack_rw_clock, Checker::kSlack,
                  MeterTrace::kClock);
BENCHMARK_CAPTURE(BM_CheckerReplay, latency_rw_clock, Checker::kLatency,
                  MeterTrace::kClock);
BENCHMARK_CAPTURE(BM_CheckerReplay, all_one_meter_rw_clock, Checker::kAll,
                  MeterTrace::kClock);
BENCHMARK_CAPTURE(BM_CheckerReplay, invariant_rw_mmt, Checker::kInvariant,
                  MeterTrace::kMmt);
BENCHMARK_CAPTURE(BM_CheckerReplay, cert_rw_mmt, Checker::kCert,
                  MeterTrace::kMmt);
BENCHMARK_CAPTURE(BM_CheckerReplay, slack_rw_mmt, Checker::kSlack,
                  MeterTrace::kMmt);
BENCHMARK_CAPTURE(BM_CheckerReplay, latency_rw_mmt, Checker::kLatency,
                  MeterTrace::kMmt);
BENCHMARK_CAPTURE(BM_CheckerReplay, all_one_meter_rw_mmt, Checker::kAll,
                  MeterTrace::kMmt);

// Histogram::add on the slack histograms' zero-centred doubling ladder
// (slack_bounds()), as BoundSlackProbe feeds it: cycling through 4,096
// Durations of every magnitude from 0 to 2^30 ns, either sign.
void BM_HistogramAdd(benchmark::State& state) {
  Histogram h(slack_bounds());
  Rng rng(1);
  std::vector<Duration> samples(4096);
  for (Duration& x : samples) {
    const Duration mag =
        rng.uniform(0, (Duration{1} << rng.uniform(0, 30)) - 1);
    x = rng.uniform(0, 1) == 0 ? mag : -mag;
  }
  std::size_t k = 0;
  for (auto _ : state) {
    h.add(samples[k]);
    benchmark::DoNotOptimize(&h);
    benchmark::ClobberMemory();
    k = (k + 1) & (samples.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

void BM_GammaConstruction(benchmark::State& state) {
  RwRunConfig cfg = bench_config();
  ZigzagDrift drift(0.25);
  const auto run = run_rw_clock(cfg, drift);
  for (auto _ : state) {
    const auto chk = check_simulation1(run.events, run.trajectories, cfg.d1,
                                       cfg.d2, cfg.eps);
    benchmark::DoNotOptimize(chk.delays_ok);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.events.size()));
}
BENCHMARK(BM_GammaConstruction);

}  // namespace
}  // namespace psc

BENCHMARK_MAIN();
