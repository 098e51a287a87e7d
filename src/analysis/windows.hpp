// The paper's quantitative bounds as closed windows. The durations they
// bound are measured once per event by the window meter
// (analysis/meter.hpp); three online checkers evaluate these windows on
// its output: the trace invariant checker (analysis/trace_check.hpp,
// pass/fail), the bound-slack observatory (obs/observatory.hpp, how close
// did we get) and the certificate probe (analysis/bounds.hpp, per-edge
// windows derived from the composition).
//
// Every theorem the checkers enforce is an interval constraint on a
// measured duration:
//
//   C_eps (Def 2.5)       signed skew c(t) - t       in [-eps, +eps]
//                         (widened by ell under MMT, where the reported
//                         clock is the last *ticked* value)
//   Figure 1              real delivery latency      in [d1, d2]
//   Theorem 4.7           clock-time delivery        in [max(d1-2eps,0),
//                                                        d2+2eps]
//   MMT boundmap (5.1)    tick/step gap              in [0, ell]
//
// BoundWindow::slack is the one number every consumer needs: the signed
// distance from a measurement to the nearest edge of its window. Positive
// slack is margin (how much adversarial room was left unused), zero is a
// tight run, negative is a bound violation — the checkers report
// slack < -tolerance, the observatory histograms the value itself.
#pragma once

#include <algorithm>

#include "core/time.hpp"

namespace psc {

// Grid tolerance for clock-derived measurements: clock trajectories are
// integer-nanosecond piecewise lines, so clock_at()/time_first_at() round
// by up to a few ns. The default of TraceCheckOptions::slack and the
// certificate probe's tolerance.
inline constexpr Duration kGridTolerance = 4;

// Closed interval [lo, hi] over Durations.
struct BoundWindow {
  Duration lo = 0;
  Duration hi = 0;

  // Signed distance to the nearest edge: min margin when inside (>= 0),
  // -(overshoot) when outside (< 0).
  Duration slack(Duration x) const { return std::min(x - lo, hi - x); }

  // Containment with a symmetric tolerance (see kGridTolerance).
  bool contains(Duration x, Duration tolerance = 0) const {
    return slack(x) >= -tolerance;
  }
};

// C_eps drift envelope on the *signed* skew c(t) - t. Under MMT (ell > 0)
// the reported clock is the last ticked value, stale by up to ell.
inline BoundWindow ceps_window(Duration eps, Duration ell = -1) {
  const Duration band = eps + (ell > 0 ? ell : 0);
  return {-band, band};
}

// The physical channel's delivery window [d1, d2] (Figure 1). A negative
// d1 means "no lower bound", i.e. 0.
inline BoundWindow delivery_window(Duration d1, Duration d2) {
  return {d1 < 0 ? 0 : d1, d2};
}

// Theorem 4.7's translated clock-time window [max(d1-2eps,0), d2+2eps]:
// what the simulated timed execution's channels are allowed to do.
inline BoundWindow thm47_window(Duration d1, Duration d2, Duration eps) {
  return {d1 > 2 * eps ? d1 - 2 * eps : 0, d2 + 2 * eps};
}

// The MMT boundmap [0, ell] on consecutive TICKs / node steps (Def 5.1).
inline BoundWindow mmt_window(Duration ell) { return {0, ell}; }

}  // namespace psc
