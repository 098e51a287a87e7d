// Unit tests for the hierarchical timing wheel (runtime/wheel.hpp): exact
// minimum queries across levels, the now-bucket, unlinking, overflow
// cascades, far-future wakes, moving an entry in place, and a randomized
// cross-check against a brute-force per-slot reference calendar.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/time.hpp"
#include "runtime/wheel.hpp"
#include "util/rng.hpp"

namespace psc {
namespace {

// Drives a TimingWheel the way the executor does: one entry per slot, set
// to the slot's hint or unlinked; advances fire the due slots.
struct Harness {
  TimingWheel wheel;
  WheelStats st;

  explicit Harness(std::size_t slots, Time start = 0) {
    wheel.reset(start, slots);
  }

  void set(Time t, std::uint32_t s) { wheel.set(s, t, st); }
  Time earliest() const { return wheel.earliest(); }
  // Advances to t and returns the due slots, ascending.
  std::vector<std::uint32_t> advance(Time t) {
    std::vector<std::uint32_t> due;
    wheel.advance_to(t, [&due](std::uint32_t s) { due.push_back(s); }, st);
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
    h.set(times[i], static_cast<std::uint32_t>(i));
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
  h.set(milliseconds(3), 0);
  EXPECT_EQ(h.earliest(), milliseconds(3));
  // Draining at the same time fires it without moving the cursor.
  EXPECT_EQ(h.advance(milliseconds(3)), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(h.earliest(), kTimeMax);
}

TEST(Wheel, UnlinkCancelsEntry) {
  Harness h(3);
  h.set(50, 0);
  h.set(90, 1);
  h.wheel.unlink(0);  // slot 0 turned non-empty: it holds no wake
  EXPECT_FALSE(h.wheel.linked(0));
  EXPECT_EQ(h.earliest(), 90);
  EXPECT_EQ(h.wheel.size(), 1u);
  // An entry unlinked before it came due never fires; set(kTimeMax) is
  // unlink, and unlinking an unlinked slot does nothing.
  h.set(70, 2);
  h.set(kTimeMax, 2);
  h.wheel.unlink(2);
  EXPECT_EQ(h.advance(90), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(h.wheel.size(), 0u);
  EXPECT_EQ(h.st.due, 1u);
  EXPECT_EQ(h.st.stale_drops, 0u);
}

TEST(Wheel, OverflowCascadeFiresAtExactTime) {
  // A far-future entry sits at a coarse level; advancing near it must
  // cascade it down level by level and fire it exactly at its time, never
  // early (a cascade bug fires whole-slot ranges at the slot's start).
  Harness h(1);
  const Time t = 123'456'789'123;  // ~2 minutes, level 6
  h.set(t, 0);
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
  h.set(far, 0);
  EXPECT_EQ(h.earliest(), far);
  h.set(1000, 1);
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
    h.set(times[i], static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(h.advance(25), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(h.earliest(), 30);
  EXPECT_EQ(h.advance(50'000), (std::vector<std::uint32_t>{2, 3, 4}));
  EXPECT_EQ(h.earliest(), 600'000);
  EXPECT_EQ(h.wheel.size(), 1u);
}

TEST(Wheel, MoveRefilesInPlace) {
  Harness h(2);
  // Repeated re-polls of one slot move its one entry, across levels too.
  for (int i = 0; i < 100; ++i) {
    h.set(1000 + 97 * i, 0);
    EXPECT_EQ(h.wheel.size(), 1u);
    EXPECT_EQ(h.earliest(), 1000 + 97 * i);
  }
  h.set(seconds(3), 0);
  h.set(5000, 0);
  EXPECT_EQ(h.st.inserts, 102u);
  // A re-poll reporting the same hint leaves the entry alone.
  h.set(5000, 0);
  EXPECT_EQ(h.st.inserts, 102u);
  h.set(4000, 1);
  EXPECT_EQ(h.earliest(), 4000);
  // Moving past another slot's entry reorders the minimum.
  h.set(3000, 0);
  EXPECT_EQ(h.earliest(), 3000);
  h.set(6000, 0);
  EXPECT_EQ(h.advance(5000), (std::vector<std::uint32_t>{1}));
  // Moved into the now-bucket, then out of it, after a cascade.
  h.set(5000, 0);
  EXPECT_EQ(h.earliest(), 5000);
  h.set(5500, 0);
  EXPECT_EQ(h.earliest(), 5500);
  EXPECT_EQ(h.advance(5500), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(h.wheel.size(), 0u);
  EXPECT_EQ(h.earliest(), kTimeMax);
}

TEST(Wheel, RandomizedAgainstReferenceCalendar) {
  // Brute-force reference: each slot's wake time, scanned per query. The
  // wheel must agree on every earliest() and every advance_to() due set
  // under a random mix of sets (file or move), unlinks and jumps.
  Rng rng(20260809);
  Harness h(8);
  std::map<std::uint32_t, Time> ref;  // slot -> its one wake
  Time cur = 0;
  for (int op = 0; op < 4000; ++op) {
    const double roll = rng.uniform01();
    if (roll < 0.45) {
      // File or move at a delta spanning all levels (0 .. ~17 minutes).
      const std::uint32_t s = static_cast<std::uint32_t>(rng.index(8));
      const Time t = cur + rng.uniform(0, Time{1} << rng.uniform(0, 40));
      h.set(t, s);
      ref[s] = t;
    } else if (roll < 0.65) {
      // Unlink one slot's entry (the slot turned non-empty).
      const std::uint32_t s = static_cast<std::uint32_t>(rng.index(8));
      h.wheel.unlink(s);
      ref.erase(s);
    } else if (roll < 0.85) {
      // Query: exact minimum over the reference's wakes.
      Time want = kTimeMax;
      for (const auto& [s, t] : ref) want = std::min(want, t);
      ASSERT_EQ(h.earliest(), want) << "op " << op;
      ASSERT_EQ(h.wheel.size(), ref.size()) << "op " << op;
    } else {
      // Advance to a random target ≥ cur; due sets must match exactly.
      const Time target = cur + rng.uniform(0, Time{1} << rng.uniform(0, 36));
      std::vector<std::uint32_t> want;
      for (auto it = ref.begin(); it != ref.end();) {
        if (it->second <= target) {
          want.push_back(it->first);  // map order: ascending slot
          it = ref.erase(it);
        } else {
          ++it;
        }
      }
      ASSERT_EQ(h.advance(target), want) << "op " << op;
      for (std::uint32_t s = 0; s < 8; ++s) {
        ASSERT_EQ(h.wheel.linked(s), ref.count(s) == 1) << "op " << op;
      }
      cur = target;
    }
  }
  EXPECT_EQ(h.st.stale_drops, 0u);
}

}  // namespace
}  // namespace psc
