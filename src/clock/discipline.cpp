#include "clock/discipline.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace psc {

namespace {

Duration estimate_error_bound(const DisciplineConfig& c) {
  return (c.link_max - c.link_min) / 2;
}

}  // namespace

Duration discipline_eps_bound(const DisciplineConfig& c) {
  // Steady state (see header): after each sync the residual skew is exactly
  // -offset_estimate_error + drift_over_interval, so
  //   |skew| <= (link_max - link_min)/2 + rho * sync_interval.
  const auto drift = static_cast<Duration>(
      c.rho * static_cast<double>(c.sync_interval));
  return estimate_error_bound(c) + drift;
}

DisciplinedClock discipline_clock(const DisciplineConfig& c, Rng& rng) {
  PSC_CHECK(c.rho > 0 && c.rho < 0.01, "rho=" << c.rho);
  PSC_CHECK(c.link_min >= 0 && c.link_min <= c.link_max, "link bounds");
  PSC_CHECK(c.sync_interval > 0, "sync_interval");
  // The slew budget must cover worst-case correction in one interval, or
  // corrections saturate and the steady-state bound does not hold.
  const double needed_slew =
      static_cast<double>(2 * estimate_error_bound(c) +
                          static_cast<Duration>(
                              c.rho * static_cast<double>(c.sync_interval))) /
      static_cast<double>(c.sync_interval);
  PSC_CHECK(c.max_slew >= needed_slew,
            "max_slew " << c.max_slew << " cannot correct worst-case offset "
                        << "within one interval (needs >= " << needed_slew
                        << "); increase max_slew or sync more often");

  DisciplinedClock out;
  out.theoretical_eps = discipline_eps_bound(c);

  std::vector<Breakpoint> pts;
  pts.push_back({0, 0});
  Time t = 0;
  Time clock = 0;
  double skew_ns = 0;       // clock - t, tracked in double for the slew math
  double rate_err = rng.uniform01() * 2 * c.rho - c.rho;  // oscillator error
  while (t < c.horizon + c.sync_interval) {
    // Cristian round trip: forward/backward one-way delays.
    const auto d_fwd = rng.uniform(c.link_min, c.link_max);
    const auto d_back = rng.uniform(c.link_min, c.link_max);
    const double est_err = static_cast<double>(d_back - d_fwd) / 2.0;
    const double measured = skew_ns + est_err;
    // Slew to remove the measured offset over the coming interval.
    double slew = -measured / static_cast<double>(c.sync_interval);
    slew = std::clamp(slew, -c.max_slew, c.max_slew);
    // Oscillator rate error wanders, bounded by rho.
    rate_err = std::clamp(
        rate_err + (rng.uniform01() - 0.5) * c.rho / 2.0, -c.rho, c.rho);

    const double interval = static_cast<double>(c.sync_interval);
    const double dc = (1.0 + rate_err + slew) * interval;
    PSC_CHECK(dc > 0, "discipline produced a non-increasing clock");
    t += c.sync_interval;
    skew_ns += (rate_err + slew) * interval;
    clock = t + static_cast<Time>(std::llround(skew_ns));
    PSC_CHECK(clock > pts.back().c, "clock must strictly increase");
    pts.push_back({t, clock});
    out.achieved_eps = std::max(
        out.achieved_eps,
        static_cast<Duration>(std::llabs(clock - t)));
  }
  // +2ns absorbs float/grid rounding in the construction above.
  out.trajectory = ClockTrajectory(std::move(pts), out.theoretical_eps + 2);
  out.trajectory.validate(c.horizon);
  return out;
}

DisciplinedDrift::DisciplinedDrift(DisciplineConfig config)
    : DriftModel("disciplined"), config_(config) {}

ClockTrajectory DisciplinedDrift::generate(Duration eps, Time horizon,
                                           Rng& rng) const {
  DisciplineConfig c = config_;
  c.horizon = horizon;
  PSC_CHECK(discipline_eps_bound(c) + 2 <= eps,
            "discipline parameters achieve only "
                << format_time(discipline_eps_bound(c))
                << " but the system asked for eps = " << format_time(eps));
  auto disciplined = discipline_clock(c, rng);
  // Re-tag the trajectory with the requested (looser) envelope.
  return disciplined.trajectory.with_eps(eps);
}

}  // namespace psc
