// Heap allocations per executed event in the MMT model's steady state.
//
// This binary replaces the global operator new with a counting one, so a
// test can read how many allocations a stretch of Executor::run() made. A
// probe snapshots the count at every event: the figure is the allocations
// between the end of a warm-up prefix and the last event, per event, so
// neither assembly, the first sighting of each action kind, nor run-end
// reporting counts.
//
// The systems are assembled the way psc_bench assembles rw_mmt_writes
// (with the trace recording off: a recorded trace grows with the run), and
// run on the executor's production loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "clock/trajectory.hpp"
#include "mmt/mmt_system.hpp"
#include "obs/probe.hpp"
#include "runtime/executor.hpp"
#include "runtime/system.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "util/rng.hpp"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace psc {
namespace {

// Reads the allocation count at the warm-up boundary and at every event
// after it.
class AllocationProbe final : public Probe {
 public:
  explicit AllocationProbe(std::uint64_t warmup) : warmup_(warmup) {}

  bool observes_time() const override { return false; }
  void on_event(const TimedEvent&, const Machine&) override {
    if (++events_ == warmup_) at_warmup_ = g_allocations;
    last_ = g_allocations;
  }

  std::uint64_t measured_events() const {
    return events_ > warmup_ ? events_ - warmup_ : 0;
  }
  double per_event() const {
    return static_cast<double>(last_ - at_warmup_) /
           static_cast<double>(measured_events());
  }

 private:
  std::uint64_t warmup_;
  std::uint64_t events_ = 0;
  std::uint64_t at_warmup_ = 0;
  std::uint64_t last_ = 0;
};

// psc_bench's rw_mmt_writes parameters: Algorithm S on a complete graph
// with self-loops, zigzag clocks, ell = 5 us.
constexpr int kNodes = 4;
constexpr Duration kEps = microseconds(50);
constexpr Duration kD1 = microseconds(20);
constexpr Duration kD2 = microseconds(300);
constexpr Duration kEll = microseconds(5);
constexpr std::uint64_t kSeed = 1;

// Adds the MMT register system (no clients) to `exec`.
void add_register_system(Executor& exec, Time horizon) {
  const ZigzagDrift drift(0.25);
  Rng seeder(kSeed ^ 0xc1c1c1c1ULL);
  std::vector<std::shared_ptr<const ClockTrajectory>> trajectories;
  for (int i = 0; i < kNodes; ++i) {
    Rng r = seeder.split();
    trajectories.push_back(
        std::make_shared<ClockTrajectory>(drift.generate(kEps, horizon, r)));
  }
  RwParams p;
  p.num_nodes = kNodes;
  p.c = microseconds(40);
  p.delta = 1;
  p.d2_prime = mmt_d2(kD2, kEps, kNodes + 2, kEll);
  p.two_eps = 2 * kEps;
  ChannelConfig cc;
  cc.d1 = kD1;
  cc.d2 = kD2;
  cc.seed = kSeed ^ 0xe5e5;
  MmtConfig mc;
  mc.ell = kEll;
  mc.seed = kSeed ^ 0x4d4d54;
  add_mmt_system(exec, Graph::complete_with_self_loops(kNodes), cc,
                 make_rw_algorithms(kNodes, p), std::move(trajectories), mc);
}

TEST(Allocations, IdleMmtSystemAllocatesNothingPerEvent) {
  // Clients that issue no operations leave a pure TICK / MMTSTEP stream.
  const Time horizon = milliseconds(20);
  AllocationProbe probe(/*warmup=*/2'000);
  Executor exec({.horizon = horizon,
                 .seed = kSeed,
                 .record_events = false,
                 .probes = {&probe}});
  add_register_system(exec, horizon);
  exec.run();
  ASSERT_GT(probe.measured_events(), 10'000u);
  EXPECT_EQ(probe.per_event(), 0.0);
}

TEST(Allocations, MmtRegisterSystemAllocatesRarelyPerEvent) {
  // The write-heavy register workload: every allocation left is message
  // traffic (a write's four sends, their channel and buffer records).
  const Time horizon = seconds(30);
  AllocationProbe probe(/*warmup=*/20'000);
  Executor exec({.horizon = horizon,
                 .seed = kSeed,
                 .record_events = false,
                 .probes = {&probe}});
  ClientOptions co;
  co.num_ops = 200;
  co.think_min = 0;
  co.think_max = microseconds(200);
  co.write_fraction = 0.8;
  std::vector<RwClient*> clients;
  for (auto& c : make_clients(kNodes, co, kSeed ^ 0xc7, &clients)) {
    exec.add_owned(std::move(c));
  }
  add_register_system(exec, horizon);
  exec.stop_when([&clients] {
    for (const RwClient* c : clients) {
      if (!c->finished()) return false;
    }
    return true;
  });
  exec.run();
  ASSERT_GT(probe.measured_events(), 100'000u);
  EXPECT_LE(probe.per_event(), 0.1);
}

}  // namespace
}  // namespace psc
