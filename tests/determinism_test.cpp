// Reproducibility guarantees: identical seeds give bit-identical event
// traces in every model (the property that makes seed sweeps meaningful
// and failures replayable), raw message uids included — two runs in one
// process compare without any remapping, because each executor names its
// messages from 1 — and different seeds actually explore different
// schedules.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/trace_io.hpp"
#include "obs/causal.hpp"
#include "obs/flight.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "rw/harness.hpp"
#include "rw/queue.hpp"

namespace psc {
namespace {

RwRunConfig cfg_for(std::uint64_t seed) {
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

TEST(DeterminismTest, TimedModelIsSeedDeterministic) {
  const auto a = run_rw_timed(cfg_for(42));
  const auto b = run_rw_timed(cfg_for(42));
  EXPECT_EQ(trace_to_text(a.events), trace_to_text(b.events));
  const auto c = run_rw_timed(cfg_for(43));
  EXPECT_NE(trace_to_text(a.events), trace_to_text(c.events));
}

TEST(DeterminismTest, ClockModelIsSeedDeterministic) {
  ZigzagDrift d1(0.3), d2(0.3);
  const auto a = run_rw_clock(cfg_for(42), d1);
  const auto b = run_rw_clock(cfg_for(42), d2);
  EXPECT_EQ(trace_to_text(a.events), trace_to_text(b.events));
}

TEST(DeterminismTest, MmtModelIsSeedDeterministic) {
  PerfectDrift drift;
  const auto a = run_rw_mmt(cfg_for(42), drift, microseconds(10), 5);
  const auto b = run_rw_mmt(cfg_for(42), drift, microseconds(10), 5);
  EXPECT_EQ(trace_to_text(a.events), trace_to_text(b.events));
}

QueueRunConfig queue_cfg() {
  QueueRunConfig qc;
  qc.num_nodes = 3;
  qc.d1 = microseconds(20);
  qc.d2 = microseconds(250);
  qc.eps = microseconds(40);
  qc.ops_per_node = 8;
  qc.think_max = microseconds(300);
  qc.horizon = seconds(5);
  qc.seed = 7;
  return qc;
}

TEST(DeterminismTest, QueueIsSeedDeterministic) {
  ZigzagDrift d1(0.3), d2(0.3);
  const auto a = run_queue_clock(queue_cfg(), d1);
  const auto b = run_queue_clock(queue_cfg(), d2);
  EXPECT_EQ(trace_to_text(a.events), trace_to_text(b.events));
}

// 64-bit FNV-1a: a fixed, platform-independent digest of a trace's text.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The tests above compare two runs of one build; these pin the traces
// across builds. The constants were read from a build whose clock inverses
// bisected the nanosecond grid, so any later change to the clock-model path
// (deadline translation, the adapter's clock reads, the composite's poll)
// must keep Simulation 1 seed-for-seed identical to it.
TEST(DeterminismTest, ClockModelTraceIsPinnedAcrossBuilds) {
  ZigzagDrift drift(0.3);
  const auto run = run_rw_clock(cfg_for(42), drift);
  const std::string text = trace_to_text(run.events);
  EXPECT_EQ(run.events.size(), 180u);
  EXPECT_EQ(fnv1a(text), 2273367640099847480ULL);
}

TEST(DeterminismTest, MmtModelTraceIsPinnedAcrossBuilds) {
  ZigzagDrift drift(0.3);
  const auto run = run_rw_mmt(cfg_for(42), drift, microseconds(10), 5);
  const std::string text = trace_to_text(run.events);
  EXPECT_EQ(run.events.size(), 3840u);
  EXPECT_EQ(fnv1a(text), 6793192959222367438ULL);
}

TEST(DeterminismTest, QueueClockTraceIsPinnedAcrossBuilds) {
  ZigzagDrift drift(0.3);
  const auto run = run_queue_clock(queue_cfg(), drift);
  const std::string text = trace_to_text(run.events);
  EXPECT_EQ(run.events.size(), 432u);
  EXPECT_EQ(fnv1a(text), 1336714106374535452ULL);
}

// The observability outputs of one cfg_for(42) run with the causal probe,
// a flight recorder whose ring holds the whole run and a registry (which
// attaches the channel, Simulation 1 and MMT probes) all on.
struct ObservedRun {
  std::uint64_t events = 0;
  std::string dag;       // CausalDag::to_text()
  std::string snapshot;  // write_snapshot bytes
  std::string metrics;   // registry JSONL after FlightRecorder::export_metrics
};

template <typename RunFn>
ObservedRun observe_run(RunFn run) {
  MetricsRegistry reg;
  CausalTraceProbe causal;
  FlightRecorder flight({.ring_capacity = std::size_t{1} << 13});
  ObsOptions oo;
  oo.registry = &reg;
  oo.causal = &causal;
  oo.flight = &flight;
  RwRunConfig cfg = cfg_for(42);
  cfg.obs = &oo;
  const RwRunResult res = run(cfg);
  EXPECT_EQ(flight.dropped(), 0u);
  EXPECT_EQ(flight.total_recorded(), res.events.size());
  ObservedRun out;
  out.events = res.events.size();
  out.dag = causal.dag().to_text();
  std::ostringstream snap;
  write_snapshot(snap, flight.snapshot());
  out.snapshot = snap.str();
  flight.export_metrics(reg);
  std::ostringstream metrics;
  reg.write_jsonl(metrics);
  out.metrics = metrics.str();
  return out;
}

// Pins what the observability layer derives from the pinned traces above:
// a change to how the recorder, the causal index or the probes look up
// names and uids must leave every output byte-identical.
TEST(DeterminismTest, ClockModelObservabilityIsPinnedAcrossBuilds) {
  const ObservedRun o = observe_run([](const RwRunConfig& cfg) {
    ZigzagDrift drift(0.3);
    return run_rw_clock(cfg, drift);
  });
  EXPECT_EQ(o.events, 180u);
  EXPECT_EQ(fnv1a(o.dag), 18243569999467700571ULL);
  EXPECT_EQ(fnv1a(o.snapshot), 10336008634846367771ULL);
  EXPECT_EQ(fnv1a(o.metrics), 10378759462477976259ULL);
}

TEST(DeterminismTest, MmtModelObservabilityIsPinnedAcrossBuilds) {
  const ObservedRun o = observe_run([](const RwRunConfig& cfg) {
    ZigzagDrift drift(0.3);
    return run_rw_mmt(cfg, drift, microseconds(10), 5);
  });
  EXPECT_EQ(o.events, 3840u);
  EXPECT_EQ(fnv1a(o.dag), 1213085631828105935ULL);
  EXPECT_EQ(fnv1a(o.snapshot), 15183780269629329630ULL);
  EXPECT_EQ(fnv1a(o.metrics), 13232878899596098305ULL);
}

}  // namespace
}  // namespace psc
