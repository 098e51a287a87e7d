// Tests for clock trajectories and drift models: axioms C1/C3, the C_eps
// band, inversion properties, and generator sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "clock/trajectory.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace psc {
namespace {

TEST(TrajectoryTest, PerfectClockIsIdentity) {
  const auto traj = ClockTrajectory::perfect();
  for (Time t : {Time{0}, Time{5}, milliseconds(3), seconds(2)}) {
    EXPECT_EQ(traj.clock_at(t), t);
    EXPECT_EQ(traj.time_first_at(t), t);
    EXPECT_EQ(traj.time_last_at(t), t);
  }
}

TEST(TrajectoryTest, AxiomC1Enforced) {
  EXPECT_THROW(ClockTrajectory({{0, 5}}, 10), CheckError);
  EXPECT_THROW(ClockTrajectory({{5, 0}}, 10), CheckError);
  EXPECT_NO_THROW(ClockTrajectory({{0, 0}}, 10));
}

TEST(TrajectoryTest, BreakpointsMustIncrease) {
  EXPECT_THROW(ClockTrajectory({{0, 0}, {10, 5}, {10, 8}}, 100), CheckError);
  EXPECT_THROW(ClockTrajectory({{0, 0}, {10, 5}, {20, 5}}, 100), CheckError);
}

TEST(TrajectoryTest, PiecewiseInterpolation) {
  // Rate 2 until t=10 (c=20), then rate 1.
  const ClockTrajectory traj({{0, 0}, {10, 20}}, 100);
  EXPECT_EQ(traj.clock_at(5), 10);
  EXPECT_EQ(traj.clock_at(10), 20);
  EXPECT_EQ(traj.clock_at(15), 25);  // final ray at rate 1
}

TEST(TrajectoryTest, InverseConsistency) {
  const ClockTrajectory traj({{0, 0}, {10, 20}, {30, 25}}, 100);
  for (Time c = 0; c <= 40; ++c) {
    const Time tf = traj.time_first_at(c);
    EXPECT_GE(traj.clock_at(tf), c) << "c=" << c;
    if (tf > 0) {
      EXPECT_LT(traj.clock_at(tf - 1), c) << "c=" << c;
    }
    const Time tl = traj.time_last_at(c);
    EXPECT_LE(traj.clock_at(tl), c) << "c=" << c;
    EXPECT_GT(traj.clock_at(tl + 1), c) << "c=" << c;
  }
}

// --- inverse oracle -----------------------------------------------------------

// The grid bisection the library ran before its closed-form inverses: find
// the segment whose clock range holds c, then bisect the nanosecond grid
// inside it with clock_at. It relies only on clock_at being nondecreasing,
// so it is the reference the closed forms must match exactly.
struct Segment {
  Breakpoint lo, hi;
};

Segment segment_of_clock(const ClockTrajectory& traj, Time c) {
  const auto& pts = traj.points();
  auto it = std::upper_bound(
      pts.begin(), pts.end(), c,
      [](Time x, const Breakpoint& b) { return x < b.c; });
  return {*(it - 1), *it};
}

Time bisect_time_first_at(const ClockTrajectory& traj, Time c) {
  if (c <= 0) return 0;
  const auto& last = traj.points().back();
  if (c >= last.c) return last.t + (c - last.c);
  const auto [lo, hi] = segment_of_clock(traj, c);
  if (c == lo.c) return lo.t;
  Time a = lo.t, b = hi.t;  // clock_at(a) < c <= clock_at(b)
  while (a + 1 < b) {
    const Time mid = a + (b - a) / 2;
    if (traj.clock_at(mid) >= c) {
      b = mid;
    } else {
      a = mid;
    }
  }
  return b;
}

Time bisect_time_last_at(const ClockTrajectory& traj, Time c) {
  const auto& last = traj.points().back();
  if (c >= last.c) return last.t + (c - last.c);
  const auto [lo, hi] = segment_of_clock(traj, c);
  Time a = lo.t, b = hi.t;  // clock_at(a) <= c < clock_at(b)
  while (a + 1 < b) {
    const Time mid = a + (b - a) / 2;
    if (traj.clock_at(mid) <= c) {
      a = mid;
    } else {
      b = mid;
    }
  }
  return a;
}

void expect_inverses_match_bisection(const ClockTrajectory& traj, Time c,
                                     const std::string& what) {
  ASSERT_EQ(traj.time_first_at(c), bisect_time_first_at(traj, c))
      << what << " time_first_at(" << c << ")";
  ASSERT_EQ(traj.time_last_at(c), bisect_time_last_at(traj, c))
      << what << " time_last_at(" << c << ")";
}

// Hand-made trajectories with awkward segments: rates 1/1000, 1000, 7/3 and
// 3/7 (so ceil(k*B/A) is rarely exact), length-1 segments in time, and each
// shape at two scales. Every c from 0 through the final ray is checked,
// which includes 0 and every breakpoint clock.
TEST(TrajectoryInverseOracle, AwkwardTrajectoriesEveryClockValue) {
  const std::vector<std::vector<Breakpoint>> shapes = {
      // 1/1000, then 1000 over one nanosecond, 7/3, 3/7, a length-1 rate-1.
      {{0, 0}, {1000, 1}, {1001, 1001}, {1004, 1008}, {1011, 1011},
       {1012, 1012}},
      // 7/3 and 3/7 scaled by 1000, then 1000 over one ns, then 1/1000.
      {{0, 0}, {3000, 7000}, {10000, 10000}, {10001, 11000}, {11001, 11001}},
      // Starts with a length-1 segment of rate 1000; ends on a 3/7 segment.
      {{0, 0}, {1, 1000}, {1001, 1001}, {1008, 1004}},
      // Consecutive length-1 segments of rates 1, 2 and 3.
      {{0, 0}, {1, 1}, {2, 3}, {3, 6}, {1000, 7}},
  };
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const ClockTrajectory traj(shapes[i], seconds(1));
    const std::string what = "shape " + std::to_string(i);
    const Time last_c = traj.points().back().c;
    for (Time c = 0; c <= last_c + 10; ++c) {
      expect_inverses_match_bisection(traj, c, what);
    }
  }
}

// Sampled c over generated trajectories: every breakpoint clock and its
// neighbours, plus uniform draws through the final ray.
void expect_sampled_inverses_match(const ClockTrajectory& traj,
                                   std::size_t stride, int draws,
                                   std::uint64_t seed,
                                   const std::string& what) {
  const auto& pts = traj.points();
  for (std::size_t i = 0; i < pts.size(); i += stride) {
    for (Time c : {pts[i].c - 1, pts[i].c, pts[i].c + 1}) {
      if (c >= 0) expect_inverses_match_bisection(traj, c, what);
    }
  }
  Rng rng(seed);
  const Time top = pts.back().c + milliseconds(1);
  for (int k = 0; k < draws; ++k) {
    expect_inverses_match_bisection(traj, rng.uniform(0, top), what);
  }
}

TEST(TrajectoryInverseOracle, StandardDriftModelsSampled) {
  for (std::uint64_t seed : {1, 7919}) {
    Rng rng(seed);
    for (const auto& model : standard_drift_models()) {
      const auto traj = model->generate(milliseconds(1), seconds(1), rng);
      expect_sampled_inverses_match(traj, 1, 2000, seed,
                                    model->name() + " seed " +
                                        std::to_string(seed));
    }
  }
}

// The clock behind the rw_clock_reads benchmark workload: ZigzagDrift(0.25)
// at eps = 50us over 30s, ~83k breakpoints.
TEST(TrajectoryInverseOracle, BenchmarkZigzagSampled) {
  for (std::uint64_t seed : {1, 7919}) {
    Rng rng(seed);
    const auto traj =
        ZigzagDrift(0.25).generate(microseconds(50), seconds(30), rng);
    expect_sampled_inverses_match(traj, 97, 20000, seed,
                                  "zigzag seed " + std::to_string(seed));
  }
}

TEST(TrajectoryTest, ClockIsMonotone) {
  const ClockTrajectory traj({{0, 0}, {7, 3}, {20, 30}, {40, 41}}, 100);
  Time prev = traj.clock_at(0);
  for (Time t = 1; t <= 60; ++t) {
    const Time c = traj.clock_at(t);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(TrajectoryTest, ValidateAcceptsInBandRejectsOutOfBand) {
  const ClockTrajectory ok({{0, 0}, {10, 12}}, 2);
  EXPECT_NO_THROW(ok.validate(100));
  const ClockTrajectory bad({{0, 0}, {10, 15}}, 2);
  EXPECT_THROW(bad.validate(100), CheckError);
}

// --- drift models ------------------------------------------------------------

class DriftModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DriftModelTest, AllStandardModelsStayInBand) {
  const Duration eps = milliseconds(1);
  const Time horizon = seconds(1);
  Rng rng(GetParam());
  for (const auto& model : standard_drift_models()) {
    const auto traj = model->generate(eps, horizon, rng);
    EXPECT_NO_THROW(traj.validate(horizon)) << model->name();
    // Pointwise band check on a grid, including between breakpoints.
    for (Time t = 0; t <= horizon; t += horizon / 997) {
      const Time c = traj.clock_at(t);
      EXPECT_LE(std::llabs(c - t), eps)
          << model->name() << " at t=" << format_time(t);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriftModelTest,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

TEST(DriftModelsTest, OffsetReachesItsTarget) {
  const Duration eps = microseconds(100);
  Rng rng(7);
  OffsetDrift plus(+1.0), minus(-1.0);
  const auto tp = plus.generate(eps, seconds(1), rng);
  const auto tm = minus.generate(eps, seconds(1), rng);
  // After the ramp, skew settles at +eps / -eps.
  EXPECT_EQ(tp.clock_at(seconds(1)) - seconds(1), eps);
  EXPECT_EQ(tm.clock_at(seconds(1)) - seconds(1), -eps);
}

TEST(DriftModelsTest, ZigzagActuallySwings) {
  const Duration eps = microseconds(100);
  Rng rng(7);
  ZigzagDrift zig(0.25);
  const auto traj = zig.generate(eps, seconds(1), rng);
  Time max_skew = 0, min_skew = 0;
  for (Time t = 0; t <= seconds(1); t += microseconds(10)) {
    const Time skew = traj.clock_at(t) - t;
    max_skew = std::max(max_skew, skew);
    min_skew = std::min(min_skew, skew);
  }
  EXPECT_GT(max_skew, eps / 2);   // swings well into the positive band
  EXPECT_LT(min_skew, -eps / 2);  // and the negative band
}

TEST(DriftModelsTest, OffsetFracOutOfRangeRejected) {
  EXPECT_THROW(OffsetDrift(1.5), CheckError);
  EXPECT_THROW(OffsetDrift(-2.0), CheckError);
}

TEST(DriftModelsTest, ZeroEpsDegeneratesToPerfect) {
  Rng rng(3);
  RandomDrift rd(0.1, milliseconds(1));
  const auto traj = rd.generate(0, seconds(1), rng);
  EXPECT_EQ(traj.clock_at(milliseconds(123)), milliseconds(123));
}

TEST(DriftModelsTest, RandomDriftIsSeedDeterministic) {
  const Duration eps = milliseconds(1);
  RandomDrift rd(0.2, milliseconds(5));
  Rng r1(42), r2(42), r3(43);
  const auto a = rd.generate(eps, seconds(1), r1);
  const auto b = rd.generate(eps, seconds(1), r2);
  const auto c = rd.generate(eps, seconds(1), r3);
  ASSERT_EQ(a.points().size(), b.points().size());
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].t, b.points()[i].t);
    EXPECT_EQ(a.points()[i].c, b.points()[i].c);
  }
  // Different seed should (overwhelmingly) differ somewhere.
  bool differs = a.points().size() != c.points().size();
  for (std::size_t i = 0; !differs && i < a.points().size(); ++i) {
    differs = a.points()[i].c != c.points()[i].c;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace psc
