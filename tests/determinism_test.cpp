// Reproducibility guarantees: identical seeds give bit-identical event
// traces in every model (the property that makes seed sweeps meaningful
// and failures replayable), raw message uids included — two runs in one
// process compare without any remapping, because each executor names its
// messages from 1 — and different seeds actually explore different
// schedules.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/trace_io.hpp"
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

}  // namespace
}  // namespace psc
