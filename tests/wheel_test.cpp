// Unit tests for the hierarchical timing wheel (runtime/wheel.hpp): exact
// minimum queries across levels, the now-bucket, lazy cancellation,
// overflow cascades, far-future wakes, compaction, and a randomized
// cross-check against a brute-force reference calendar.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/time.hpp"
#include "runtime/wheel.hpp"
#include "util/rng.hpp"

namespace psc {
namespace {

// Drives a TimingWheel the way the executor does: per-machine generation
// counters implement lazy cancellation, advances fire due machines.
struct Harness {
  TimingWheel wheel;
  WheelStats st;
  std::vector<std::uint32_t> gen;

  explicit Harness(std::size_t machines, Time start = 0)
      : gen(machines, 0) {
    wheel.reset(start);
  }

  auto valid() {
    return [this](const TimingWheel::Entry& e) {
      return e.gen == gen[e.slot];
    };
  }
  void insert(Time t, std::uint32_t m) { wheel.insert(t, m, gen[m], st); }
  Time earliest() { return wheel.earliest(valid(), st); }
  // Advances to t and returns the due machines, ascending.
  std::vector<std::uint32_t> advance(Time t) {
    std::vector<std::uint32_t> due;
    wheel.advance_to(
        t, valid(), [&due](std::uint32_t m) { due.push_back(m); }, st);
    std::sort(due.begin(), due.end());
    return due;
  }
};

TEST(Wheel, EarliestIsExactMinimumAcrossLevels) {
  // One entry per wheel level: 64^k spacings all coexist.
  Harness h(16);
  const std::vector<Time> times = {5,     63,        64,         100,
                                   4095,  4096,      262144,     1'000'003,
                                   1'000'000'007,    seconds(40)};
  for (std::size_t i = 0; i < times.size(); ++i) {
    h.insert(times[i], static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(h.earliest(), 5);
  EXPECT_EQ(h.advance(5), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(h.earliest(), 63);
  // Jumping straight past several entries drains them all at once.
  EXPECT_EQ(h.advance(4095), (std::vector<std::uint32_t>{1, 2, 3, 4}));
  EXPECT_EQ(h.earliest(), 4096);
  EXPECT_EQ(h.advance(1'000'000'007),
            (std::vector<std::uint32_t>{5, 6, 7, 8}));
  EXPECT_EQ(h.earliest(), seconds(40));
  EXPECT_EQ(h.advance(seconds(40)), (std::vector<std::uint32_t>{9}));
  EXPECT_EQ(h.earliest(), kTimeMax);
  EXPECT_EQ(h.wheel.size(), 0u);
}

TEST(Wheel, NowBucketReportsCurrentTime) {
  // An upper bound equal to now (urgent work) must surface as cur, not as
  // a future slot — the executor's deadlock check depends on it.
  Harness h(2, /*start=*/milliseconds(3));
  h.insert(milliseconds(3), 0);
  EXPECT_EQ(h.earliest(), milliseconds(3));
  // Draining at the same time fires it without moving the cursor.
  EXPECT_EQ(h.advance(milliseconds(3)), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(h.earliest(), kTimeMax);
}

TEST(Wheel, LazyCancellationDropsStaleEntries) {
  Harness h(3);
  h.insert(50, 0);
  h.insert(90, 1);
  h.gen[0] += 1;  // machine 0 re-polled: its entry is now stale
  EXPECT_EQ(h.earliest(), 90);
  EXPECT_EQ(h.st.stale_drops, 1u);  // dropped in place during the query
  // A stale entry that had already come due is silently discarded too.
  h.insert(70, 2);
  h.gen[2] += 1;
  EXPECT_EQ(h.advance(90), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(h.st.stale_drops, 2u);
  EXPECT_EQ(h.wheel.size(), 0u);
}

TEST(Wheel, OverflowCascadeFiresAtExactTime) {
  // A far-future entry sits at a coarse level; advancing near it must
  // cascade it down level by level and fire it exactly at its time, never
  // early (a cascade bug fires whole-slot ranges at the slot's start).
  Harness h(1);
  const Time t = 123'456'789'123;  // ~2 minutes, level 6
  h.insert(t, 0);
  EXPECT_EQ(h.earliest(), t);
  // Sneak up on it through every level boundary below it.
  for (Time step : {t / 2, t - 4096, t - 64, t - 1}) {
    EXPECT_TRUE(h.advance(step).empty());
    EXPECT_EQ(h.earliest(), t);  // still pending, still exact
  }
  EXPECT_GT(h.st.cascades, 0u);
  EXPECT_EQ(h.advance(t), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(h.wheel.size(), 0u);
}

TEST(Wheel, FarFutureWakesNearTimeMax) {
  // kTimeMax-scale hints (machines that will "never" wake) must file and
  // query correctly at the top overflow level.
  Harness h(2);
  const Time far = kTimeMax - 1;
  h.insert(far, 0);
  EXPECT_EQ(h.earliest(), far);
  h.insert(1000, 1);
  EXPECT_EQ(h.earliest(), 1000);  // near-term entry wins
  EXPECT_EQ(h.advance(1000), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(h.earliest(), far);
  EXPECT_EQ(h.advance(far), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(h.earliest(), kTimeMax);
}

TEST(Wheel, AdvanceDrainsDueKeepsFuture) {
  Harness h(6);
  const std::vector<Time> times = {10, 20, 30, 40'000, 50'000, 600'000};
  for (std::size_t i = 0; i < times.size(); ++i) {
    h.insert(times[i], static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(h.advance(25), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(h.earliest(), 30);
  EXPECT_EQ(h.advance(50'000), (std::vector<std::uint32_t>{2, 3, 4}));
  EXPECT_EQ(h.earliest(), 600'000);
  EXPECT_EQ(h.wheel.size(), 1u);
}

TEST(Wheel, CompactionSweepsStaleEntries) {
  Harness h(1);
  // Pile up stale entries for one machine, as repeated re-polls would.
  for (int i = 0; i < 100; ++i) {
    h.insert(1000 + i, 0);
    h.gen[0] += 1;
  }
  h.insert(5000, 0);  // the only current-generation entry
  EXPECT_EQ(h.wheel.size(), 101u);
  h.wheel.compact(h.valid(), h.st);
  EXPECT_EQ(h.st.compactions, 1u);
  EXPECT_EQ(h.wheel.size(), 1u);
  EXPECT_EQ(h.earliest(), 5000);
}

TEST(Wheel, RandomizedAgainstReferenceCalendar) {
  // Brute-force reference: a flat list of entries filtered per query. The
  // wheel must agree on every earliest() and every advance_to() due set
  // under a random mix of inserts, cancellations and jumps.
  struct RefEntry {
    Time t;
    std::uint32_t machine;
    std::uint32_t gen;
  };
  Rng rng(20260809);
  Harness h(8);
  std::vector<RefEntry> ref;
  Time cur = 0;
  for (int op = 0; op < 4000; ++op) {
    const double roll = rng.uniform01();
    if (roll < 0.45) {
      // Insert at a delta spanning all levels (0 .. ~17 minutes).
      const std::uint32_t m = static_cast<std::uint32_t>(rng.index(8));
      const Time t = cur + rng.uniform(0, Time{1} << rng.uniform(0, 40));
      h.insert(t, m);
      ref.push_back({t, m, h.gen[m]});
    } else if (roll < 0.65) {
      // Cancel one machine's entries (the executor's re-poll gen bump).
      h.gen[rng.index(8)] += 1;
    } else if (roll < 0.85) {
      // Query: exact minimum over currently-valid reference entries.
      Time want = kTimeMax;
      for (const RefEntry& e : ref) {
        if (e.gen == h.gen[e.machine]) want = std::min(want, e.t);
      }
      ASSERT_EQ(h.earliest(), want) << "op " << op;
    } else {
      // Advance to a random target ≥ cur; due sets must match exactly.
      const Time target = cur + rng.uniform(0, Time{1} << rng.uniform(0, 36));
      std::vector<std::uint32_t> want;
      std::vector<RefEntry> keep;
      for (const RefEntry& e : ref) {
        if (e.t <= target) {
          if (e.gen == h.gen[e.machine]) want.push_back(e.machine);
        } else {
          keep.push_back(e);
        }
      }
      std::sort(want.begin(), want.end());
      ASSERT_EQ(h.advance(target), want) << "op " << op;
      ref = std::move(keep);
      cur = target;
    }
  }
}

}  // namespace
}  // namespace psc
