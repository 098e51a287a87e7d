// Clock trajectories: executable clock components of clock automata.
//
// A clock automaton's clock (Def 2.3) starts at 0 (C1), increases exactly
// when time passes (C2/C3), admits intermediate values (C4), and — for the
// automata this library builds — stays within eps of real time (clock
// predicate C_eps, Def 2.5).
//
// We realize the clock as a continuous, nondecreasing, piecewise-linear
// function c(t) given by breakpoints, strictly increasing across segments.
// Piecewise linearity gives axiom C4's intermediate states by construction.
// Times live on the integer nanosecond grid. Inside a segment from lo to hi,
// with A = hi.c - lo.c and B = hi.t - lo.t,
//   c(t) = lo.c + floor(A * (t - lo.t) / B),
// so c(t) can be flat across a few grid points of a slow segment and skip
// clock values in a fast one; the executor only ever passes time in jumps
// where this is harmless. validate() enforces the C_eps band pointwise at
// breakpoints plus segment analysis in between.
//
// Storage. A trajectory stores its breakpoints, and may store them once per
// period: a prefix points[0..k), then one period points[k..k+m] that closes,
// points[k+m] = points[k] + (P, P) with P > 0, and the number of segments
// of the expanded list. The expanded list repeats the period's m segments,
// each repeat shifted by (P, P), until that many segments are written; its
// final breakpoint (last()) is derived from the count. ZigzagDrift, whose
// clock is periodic after its first half-swing, stores at most 4 points
// whatever the horizon. Every other generator stores the whole list.
//
// Cost: clock_at, time_first_at and time_last_at are each one binary search
// over the stored breakpoints plus O(1) 128-bit arithmetic; on a periodic
// trajectory the argument is first reduced by whole periods (one 64-bit
// divide), so a zigzag query searches at most 4 points. The two inverses
// are closed forms of that floor, exact on the grid (no rounding slack):
// with k = c - lo.c for the segment whose clock range [lo.c, hi.c) holds c,
//   time_first_at(c) = lo.t + ceil(k * B / A)
//   time_last_at(c)  = lo.t + ceil((k + 1) * B / A) - 1.
// Reducing by whole periods is exact, not an approximation: the segment
// formula and both inverses are unchanged when t, c, lo and hi all move by
// (P, P), so every value on [0, inf) equals the expanded list's.
//
// validate() on a periodic trajectory checks the stored breakpoints, the
// final breakpoint and the final ray. The skew c - t is the same at a
// breakpoint and at its translate by (P, P), so these are exactly the skew
// values of the expanded list: the same check, not a weaker one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "util/rng.hpp"

namespace psc {

struct Breakpoint {
  Time t = 0;  // real time
  Time c = 0;  // clock value at t
};

class ClockTrajectory {
 public:
  // The identity clock c(t) = t (also the `now` of the timed model).
  static ClockTrajectory perfect();

  // Breakpoints must start at (0, 0), be strictly increasing in both
  // coordinates, and stay within the eps band (checked). Beyond the last
  // breakpoint the clock continues at rate 1.
  ClockTrajectory(std::vector<Breakpoint> points, Duration eps);

  // A periodic trajectory (see Storage above): points[period_begin..] is
  // one period, which must close, and the expanded list has `segments`
  // segments, at least as many as the stored points span. The final
  // breakpoint is derived from that count.
  ClockTrajectory(std::vector<Breakpoint> points, std::size_t period_begin,
                  std::int64_t segments, Duration eps);

  // The same clock in a different envelope (the period is kept).
  ClockTrajectory with_eps(Duration eps) const;

  Duration eps() const { return eps_; }

  // c(t). Requires t >= 0.
  Time clock_at(Time t) const;

  // Earliest real time at which the clock reads >= c:
  //   min { t >= 0 : clock_at(t) >= c }.
  Time time_first_at(Time c) const;

  // Latest real time at which the clock still reads <= c:
  //   max { t >= 0 : clock_at(t) <= c }  (kTimeMax if the clock never
  // exceeds c, which cannot happen since the final rate is 1).
  Time time_last_at(Time c) const;

  // Verifies C1 and the C_eps band over [0, horizon]; throws CheckError on
  // violation. (C2-C4 hold by construction.)
  void validate(Time horizon) const;

  // The stored breakpoints: the whole list, or for a periodic trajectory
  // the prefix and one period. Not the expanded list; see last().
  const std::vector<Breakpoint>& points() const { return points_; }

  // The final breakpoint of the expanded list; the clock runs at rate 1
  // from here on.
  const Breakpoint& last() const { return last_; }

 private:
  // from_start, a time or clock value minus the period's start (a period
  // advances both by period_), rounded down to whole periods; 0 before the
  // period starts, and always 0 without a period.
  Time whole_periods(Time from_start) const {
    if (from_start < period_ || period_ == 0) return 0;
    return from_start - from_start % period_;
  }

  std::vector<Breakpoint> points_;  // at least {(0,0)}
  Duration eps_;
  std::size_t period_begin_;  // points_.size() - 1 without a period
  Duration period_ = 0;       // P, or 0 without a period
  Breakpoint last_;
};

// Generators for clock behaviours within a C_eps envelope. Each model
// produces a fresh trajectory per call (seeded via rng), so sweeps across
// seeds explore the envelope.
class DriftModel {
 public:
  explicit DriftModel(std::string name) : name_(std::move(name)) {}
  virtual ~DriftModel() = default;
  DriftModel(const DriftModel&) = delete;
  DriftModel& operator=(const DriftModel&) = delete;

  const std::string& name() const { return name_; }
  virtual ClockTrajectory generate(Duration eps, Time horizon,
                                   Rng& rng) const = 0;

 private:
  std::string name_;
};

// c(t) = t.
class PerfectDrift final : public DriftModel {
 public:
  PerfectDrift() : DriftModel("perfect") {}
  ClockTrajectory generate(Duration eps, Time horizon, Rng& rng) const override;
};

// Ramps quickly to a fixed offset `frac * eps` (frac in [-1, 1]) and then
// runs at rate 1. frac = +1/-1 are the extreme constant-skew adversaries.
class OffsetDrift final : public DriftModel {
 public:
  explicit OffsetDrift(double frac);
  ClockTrajectory generate(Duration eps, Time horizon, Rng& rng) const override;

 private:
  double frac_;
};

// Zigzag between +band and -band at rates 1 +/- rho: the clock repeatedly
// swings across the whole envelope — a hostile but legal clock. The initial
// swing direction is drawn from rng so different nodes get out-of-phase
// clocks (maximal inter-node skew). After the first half-swing every two
// swings advance t and c by the same 2 * half, so the trajectory stores one
// period; horizons shorter than that keep the plain list.
class ZigzagDrift final : public DriftModel {
 public:
  explicit ZigzagDrift(double rho, double band_frac = 0.9);
  ClockTrajectory generate(Duration eps, Time horizon, Rng& rng) const override;

 private:
  double rho_;
  double band_frac_;
};

// Each generated clock ramps to +eps or -eps (chosen per call from rng) and
// stays there: with several nodes this realizes the textbook worst case of
// two clocks a full 2*eps apart — the adversary that separates algorithm S
// from algorithm L.
class OpposingOffsetDrift final : public DriftModel {
 public:
  OpposingOffsetDrift() : DriftModel("opposing-offset") {}
  ClockTrajectory generate(Duration eps, Time horizon, Rng& rng) const override;
};

// Random piecewise-linear drift: segment durations ~ U[min,max], rates
// ~ U[1-rho, 1+rho], reflected off the band edges. Models an NTP-style
// disciplined clock wandering inside its accuracy bound.
class RandomDrift final : public DriftModel {
 public:
  RandomDrift(double rho, Duration mean_segment, double band_frac = 0.95);
  ClockTrajectory generate(Duration eps, Time horizon, Rng& rng) const override;

 private:
  double rho_;
  Duration mean_segment_;
  double band_frac_;
};

// The standard sweep used by the benchmark harness: perfect, +eps, -eps,
// zigzag, random. Returned pointers are owned by the returned vector.
std::vector<std::unique_ptr<DriftModel>> standard_drift_models();

}  // namespace psc
