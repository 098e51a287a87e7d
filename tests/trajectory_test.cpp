// Tests for clock trajectories and drift models: axioms C1/C3, the C_eps
// band, inversion properties, and generator sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
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

// `ref` must store its whole breakpoint list (no period).
Time bisect_time_first_at(const ClockTrajectory& ref, Time c) {
  if (c <= 0) return 0;
  const auto& last = ref.points().back();
  if (c >= last.c) return last.t + (c - last.c);
  const auto [lo, hi] = segment_of_clock(ref, c);
  if (c == lo.c) return lo.t;
  Time a = lo.t, b = hi.t;  // clock_at(a) < c <= clock_at(b)
  while (a + 1 < b) {
    const Time mid = a + (b - a) / 2;
    if (ref.clock_at(mid) >= c) {
      b = mid;
    } else {
      a = mid;
    }
  }
  return b;
}

Time bisect_time_last_at(const ClockTrajectory& ref, Time c) {
  const auto& last = ref.points().back();
  if (c >= last.c) return last.t + (c - last.c);
  const auto [lo, hi] = segment_of_clock(ref, c);
  Time a = lo.t, b = hi.t;  // clock_at(a) <= c < clock_at(b)
  while (a + 1 < b) {
    const Time mid = a + (b - a) / 2;
    if (ref.clock_at(mid) <= c) {
      a = mid;
    } else {
      b = mid;
    }
  }
  return a;
}

// traj's closed-form inverses against the bisection over `ref`, the same
// clock with every breakpoint stored.
void expect_inverses_match_bisection(const ClockTrajectory& traj,
                                     const ClockTrajectory& ref, Time c,
                                     const std::string& what) {
  ASSERT_EQ(traj.time_first_at(c), bisect_time_first_at(ref, c))
      << what << " time_first_at(" << c << ")";
  ASSERT_EQ(traj.time_last_at(c), bisect_time_last_at(ref, c))
      << what << " time_last_at(" << c << ")";
}

// The ZigzagDrift generator as it was before trajectories stored periods:
// the loop writes out every breakpoint through the horizon. Only the first
// `max_points` breakpoints are stored; the loop still runs on to find the
// final breakpoint, unless that takes more than `max_swings` swings.
// Requires eps > 0 (the generator returns the perfect clock for 0).
struct EagerZigzag {
  std::optional<ClockTrajectory> prefix;  // the first breakpoints
  bool complete = false;                  // prefix is the whole list
  std::optional<Breakpoint> last;         // unset if max_swings ran out
};

EagerZigzag eager_zigzag(double rho, Duration eps, Time horizon, Rng& rng,
                         std::size_t max_points = SIZE_MAX,
                         Time max_swings = kTimeMax) {
  const double band_frac = 0.9;
  EagerZigzag out;
  const bool start_up = rng.flip(0.5);
  const Time band = std::max<Time>(
      1, static_cast<Time>(band_frac * static_cast<double>(eps)));
  const Time half =
      std::max<Time>(2, static_cast<Time>(2.0 * static_cast<double>(band) /
                                          rho));
  std::vector<Breakpoint> pts;
  pts.push_back({0, 0});
  Time t = 0, c = 0;
  bool up = true;
  {
    const Time dt = half / 2;
    const Time dc = start_up ? dt + band : dt - band;
    PSC_CHECK(dc > 0, "zigzag produced nonincreasing clock; rho too large");
    t += dt;
    c += dc;
    pts.push_back({t, c});
    up = !start_up;
  }
  out.complete = true;
  for (Time swings = 0; t < horizon + half; ++swings) {
    if (swings == max_swings) {
      out.prefix = ClockTrajectory(std::move(pts), eps);
      out.complete = false;
      return out;
    }
    const Time dt = half;
    const Time dc = up ? dt + 2 * band : dt - 2 * band;
    PSC_CHECK(dc > 0, "zigzag produced nonincreasing clock; rho too large");
    t += dt;
    c += dc;
    if (pts.size() < max_points) {
      pts.push_back({t, c});
    } else {
      out.complete = false;
    }
    up = !up;
  }
  out.prefix = ClockTrajectory(std::move(pts), eps);
  out.last = Breakpoint{t, c};
  return out;
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
      expect_inverses_match_bisection(traj, traj, c, what);
    }
  }
}

// Sampled c over generated trajectories: every breakpoint clock of the
// expanded reference and its neighbours, plus uniform draws through the
// final ray.
void expect_sampled_inverses_match(const ClockTrajectory& traj,
                                   const ClockTrajectory& ref,
                                   std::size_t stride, int draws,
                                   std::uint64_t seed,
                                   const std::string& what) {
  const auto& pts = ref.points();
  for (std::size_t i = 0; i < pts.size(); i += stride) {
    for (Time c : {pts[i].c - 1, pts[i].c, pts[i].c + 1}) {
      if (c >= 0) expect_inverses_match_bisection(traj, ref, c, what);
    }
  }
  Rng rng(seed);
  const Time top = pts.back().c + milliseconds(1);
  for (int k = 0; k < draws; ++k) {
    expect_inverses_match_bisection(traj, ref, rng.uniform(0, top), what);
  }
}

// The expanded list of whatever `model` generated from `before`, the
// generator state before the call: the eager loop for the zigzag clock
// (ZigzagDrift(0.25) in standard_drift_models()), the trajectory itself for
// every model that stores its whole list.
ClockTrajectory expanded_reference(const DriftModel& model,
                                   const ClockTrajectory& traj, Duration eps,
                                   Time horizon, Rng before, Rng after) {
  if (model.name() != "zigzag") return traj;
  auto ref = eager_zigzag(0.25, eps, horizon, before);
  EXPECT_EQ(before.next(), after.next()) << "different draws consumed";
  return std::move(*ref.prefix);
}

TEST(TrajectoryInverseOracle, StandardDriftModelsSampled) {
  for (std::uint64_t seed : {1, 7919}) {
    Rng rng(seed);
    for (const auto& model : standard_drift_models()) {
      const Rng before = rng;
      const auto traj = model->generate(milliseconds(1), seconds(1), rng);
      const auto ref = expanded_reference(*model, traj, milliseconds(1),
                                          seconds(1), before, rng);
      expect_sampled_inverses_match(traj, ref, 1, 2000, seed,
                                    model->name() + " seed " +
                                        std::to_string(seed));
    }
  }
}

// The clock behind the rw_clock_reads benchmark workload: ZigzagDrift(0.25)
// at eps = 50us over 30s, ~83k breakpoints expanded.
TEST(TrajectoryInverseOracle, BenchmarkZigzagSampled) {
  for (std::uint64_t seed : {1, 7919}) {
    Rng rng(seed), eager_rng(seed);
    const auto traj =
        ZigzagDrift(0.25).generate(microseconds(50), seconds(30), rng);
    const auto ref =
        eager_zigzag(0.25, microseconds(50), seconds(30), eager_rng);
    expect_sampled_inverses_match(traj, *ref.prefix, 97, 20000, seed,
                                  "zigzag seed " + std::to_string(seed));
  }
}

// --- periodic storage ---------------------------------------------------------

// Breakpoints of the eager reference stored per case. A longer list is
// checked on its stored prefix, where it agrees with the whole list, plus
// its final breakpoint and ray.
constexpr std::size_t kReferencePoints = std::size_t{1} << 18;
// Swings the eager loop may run to find the final breakpoint. The 30 s
// horizons at nanosecond eps take 10^8 to 10^10 swings; those cases are
// checked on the prefix alone.
constexpr Time kReferenceSwings = Time{1} << 23;

// ZigzagDrift::generate stores one period, and every clock_at,
// time_first_at and time_last_at equals the eagerly expanded list's: at
// each expanded breakpoint's t and c +/- 2 (every 97th on lists longer
// than 2^14), on the final ray, and at uniform draws. Where one form
// throws, so does the other, after the same draws.
TEST(ZigzagPeriodicOracle, EveryQueryMatchesTheExpandedList) {
  std::int64_t queries = 0, mismatches = 0;
  bool odd_segments = false, even_segments = false, sub_period = false;
  for (double rho : {0.1, 0.25, 0.5, 0.75}) {
    for (Duration eps :
         {Time{3}, Time{7}, microseconds(50), milliseconds(1)}) {
      for (Time horizon : {Time{0}, Time{1}, microseconds(100),
                           milliseconds(1), milliseconds(37), seconds(30)}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
          const std::string what =
              "rho=" + std::to_string(rho) + " eps=" + format_time(eps) +
              " horizon=" + format_time(horizon) +
              " seed=" + std::to_string(seed);
          Rng rng(seed), eager_rng(seed);
          std::optional<ClockTrajectory> traj;
          std::optional<EagerZigzag> ref;
          bool threw = false, eager_threw = false;
          try {
            traj = ZigzagDrift(rho).generate(eps, horizon, rng);
          } catch (const CheckError&) {
            threw = true;
          }
          try {
            ref = eager_zigzag(rho, eps, horizon, eager_rng,
                               kReferencePoints, kReferenceSwings);
          } catch (const CheckError&) {
            eager_threw = true;
          }
          ASSERT_EQ(threw, eager_threw) << what;
          ASSERT_EQ(rng.next(), eager_rng.next()) << what;
          if (threw) continue;
          EXPECT_LE(traj->points().size(), 4u) << what;

          const ClockTrajectory& expanded = *ref->prefix;
          const auto& pts = expanded.points();
          // Where the reference answers: everywhere if it is whole, else
          // below its last stored breakpoint.
          const Time t_end = ref->complete ? kTimeMax : pts.back().t;
          const Time c_end = ref->complete ? kTimeMax : pts.back().c;
          const auto compare = [&](const char* fn, Time arg, Time got,
                                   Time want) {
            ++queries;
            if (got == want) return;
            if (++mismatches <= 10) {
              ADD_FAILURE() << what << " " << fn << "(" << arg
                            << ") = " << got << ", expanded " << want;
            }
          };
          const auto check_t = [&](Time t) {
            if (t >= 0 && t < t_end) {
              compare("clock_at", t, traj->clock_at(t), expanded.clock_at(t));
            }
          };
          const auto check_c = [&](Time c) {
            if (c < 0 || c >= c_end) return;
            compare("time_first_at", c, traj->time_first_at(c),
                    expanded.time_first_at(c));
            compare("time_last_at", c, traj->time_last_at(c),
                    expanded.time_last_at(c));
          };

          const std::size_t stride =
              pts.size() > (std::size_t{1} << 14) ? 97 : 1;
          for (std::size_t i = 0; i < pts.size(); i += stride) {
            for (Time d = -2; d <= 2; ++d) {
              check_t(pts[i].t + d);
              check_c(pts[i].c + d);
            }
          }
          if (ref->last) {
            const Breakpoint last = *ref->last;
            EXPECT_EQ(traj->last().t, last.t) << what;
            EXPECT_EQ(traj->last().c, last.c) << what;
            // The final ray, written out: the expanded list's clock runs
            // at rate 1 from its final breakpoint.
            for (Time d : {Time{0}, Time{1}, Time{2}, Time{1000},
                           seconds(1)}) {
              compare("clock_at", last.t + d, traj->clock_at(last.t + d),
                      last.c + d);
              compare("time_first_at", last.c + d,
                      traj->time_first_at(last.c + d), last.t + d);
              compare("time_last_at", last.c + d,
                      traj->time_last_at(last.c + d), last.t + d);
            }
          }
          if (ref->complete) {
            const auto validates = [&](const ClockTrajectory& x) {
              try {
                x.validate(horizon);
                return true;
              } catch (const CheckError&) {
                return false;
              }
            };
            EXPECT_EQ(validates(*traj), validates(expanded)) << what;
            const std::size_t segments = pts.size() - 1;
            if (segments < 3) {
              sub_period = true;
            } else {
              (segments % 2 ? odd_segments : even_segments) = true;
            }
          }
          Rng draws(seed);
          const Time t_top = ref->complete ? pts.back().t + milliseconds(1)
                                           : t_end - 1;
          const Time c_top = ref->complete ? pts.back().c + milliseconds(1)
                                           : c_end - 1;
          for (int k = 0; k < 500; ++k) {
            check_t(draws.uniform(0, t_top));
            check_c(draws.uniform(0, c_top));
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << queries << " queries";
  EXPECT_TRUE(odd_segments && even_segments && sub_period);
  RecordProperty("queries", std::to_string(queries));
}

// Expands a periodic trajectory's stored form by hand (a test fixture, not
// the oracle above): the period points[k..] repeated, shifted by (P, P),
// until `segments` segments are written.
std::vector<Breakpoint> expand(const std::vector<Breakpoint>& points,
                               std::size_t k, std::size_t segments) {
  std::vector<Breakpoint> out(points.begin(), points.begin() + k + 1);
  const Time period = points.back().t - points[k].t;
  for (Time shift = 0; out.size() <= segments; shift += period) {
    for (std::size_t i = k + 1; i < points.size() && out.size() <= segments;
         ++i) {
      out.push_back({points[i].t + shift, points[i].c + shift});
    }
  }
  return out;
}

// A prefix of two segments, then a closing period of three.
const std::vector<Breakpoint> kPeriodicShape = {
    {0, 0}, {4, 9}, {10, 12}, {13, 20}, {25, 24}, {30, 32}};

TEST(PeriodicTrajectory, AgreesWithItsExpansionEverywhere) {
  for (std::size_t segments = 5; segments <= 12; ++segments) {
    const ClockTrajectory periodic(kPeriodicShape, 2, segments, 100);
    const ClockTrajectory expanded(expand(kPeriodicShape, 2, segments), 100);
    ASSERT_EQ(expanded.points().size(), segments + 1);
    EXPECT_EQ(periodic.last().t, expanded.last().t);
    EXPECT_EQ(periodic.last().c, expanded.last().c);
    const Time end = expanded.last().t + 10;
    for (Time x = 0; x <= end; ++x) {
      ASSERT_EQ(periodic.clock_at(x), expanded.clock_at(x))
          << segments << " segments, t=" << x;
      ASSERT_EQ(periodic.time_first_at(x), expanded.time_first_at(x))
          << segments << " segments, c=" << x;
      ASSERT_EQ(periodic.time_last_at(x), expanded.time_last_at(x))
          << segments << " segments, c=" << x;
    }
  }
}

TEST(PeriodicTrajectory, ConstructorRejectsMalformedPeriods) {
  // A period that does not close: t advances 20, c advances 23.
  EXPECT_THROW(ClockTrajectory({{0, 0}, {4, 9}, {10, 12}, {24, 32}}, 1, 5,
                               100),
               CheckError);
  // A period of length 0 (it starts at the last breakpoint), and one that
  // starts past it.
  EXPECT_THROW(ClockTrajectory(kPeriodicShape, 5, 7, 100), CheckError);
  EXPECT_THROW(ClockTrajectory(kPeriodicShape, 6, 7, 100), CheckError);
  // A segment count whose final breakpoint falls inside the stored points,
  // or before the start.
  EXPECT_THROW(ClockTrajectory(kPeriodicShape, 2, 4, 100), CheckError);
  EXPECT_THROW(ClockTrajectory(kPeriodicShape, 2, 0, 100), CheckError);
  EXPECT_THROW(ClockTrajectory(kPeriodicShape, 2, -1, 100), CheckError);
  // A count whose final breakpoint overflows the time line.
  EXPECT_THROW(ClockTrajectory(kPeriodicShape, 2, INT64_MAX, 100),
               CheckError);
  // The smallest count: the final breakpoint is the period's end.
  const ClockTrajectory shortest(kPeriodicShape, 2, 5, 100);
  EXPECT_EQ(shortest.last().t, 30);
  EXPECT_EQ(shortest.last().c, 32);
  // The prefix is checked as for any trajectory.
  EXPECT_THROW(ClockTrajectory({{0, 1}, {4, 9}, {10, 12}}, 1, 3, 100),
               CheckError);
}

// validate() on the stored form throws exactly where it throws on the
// expanded list: for every eps around the shape's skews (-1 at (25, 24)
// up to 7 at (13, 20)), and for horizons before, at and past the final
// breakpoint.
TEST(PeriodicTrajectory, ValidateThrowsWhereItsExpansionThrows) {
  const auto validates = [](const ClockTrajectory& x, Time horizon) {
    try {
      x.validate(horizon);
      return true;
    } catch (const CheckError&) {
      return false;
    }
  };
  int rejected = 0;
  for (std::size_t segments = 5; segments <= 9; ++segments) {
    for (Duration eps = 0; eps <= 10; ++eps) {
      const ClockTrajectory periodic(kPeriodicShape, 2, segments, eps);
      const ClockTrajectory expanded(expand(kPeriodicShape, 2, segments),
                                     eps);
      for (Time horizon :
           {Time{0}, expanded.last().t, expanded.last().t + 1000}) {
        const bool ok = validates(periodic, horizon);
        EXPECT_EQ(ok, validates(expanded, horizon))
            << segments << " segments, eps=" << eps << ", horizon="
            << horizon;
        rejected += ok ? 0 : 1;
      }
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(PeriodicTrajectory, WithEpsKeepsTheClockAndThePeriod) {
  Rng rng(3);
  const auto traj =
      ZigzagDrift(0.25).generate(microseconds(50), seconds(1), rng);
  const auto wide = traj.with_eps(milliseconds(1));
  EXPECT_EQ(wide.eps(), milliseconds(1));
  EXPECT_EQ(wide.points().size(), traj.points().size());
  EXPECT_EQ(wide.last().t, traj.last().t);
  EXPECT_EQ(wide.last().c, traj.last().c);
  for (Time t = 0; t <= seconds(2); t += 7'777'777) {
    EXPECT_EQ(wide.clock_at(t), traj.clock_at(t)) << t;
    EXPECT_EQ(wide.time_first_at(t), traj.time_first_at(t)) << t;
  }
  EXPECT_THROW(traj.with_eps(-1), CheckError);
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
