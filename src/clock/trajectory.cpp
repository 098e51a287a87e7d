#include "clock/trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace psc {

namespace {

// Interpolates y between (x0,y0)-(x1,y1) at x using 128-bit intermediate
// math (rounding toward -inf keeps the result within [y0, y1]).
Time lerp(Time x0, Time y0, Time x1, Time y1, Time x) {
  PSC_CHECK(x0 <= x && x <= x1 && x0 < x1, "lerp out of range");
  const __int128 num = static_cast<__int128>(y1 - y0) * (x - x0);
  return y0 + static_cast<Time>(num / (x1 - x0));
}

// The segment whose clock range [lo.c, hi.c) holds c. Requires
// 0 <= c < points.back().c.
std::pair<Breakpoint, Breakpoint> segment_of_clock(
    const std::vector<Breakpoint>& points, Time c) {
  auto it = std::upper_bound(
      points.begin(), points.end(), c,
      [](Time x, const Breakpoint& b) { return x < b.c; });
  return {*(it - 1), *it};
}

// ceil(k * b / a) for k >= 0 and a, b > 0, exact in 128 bits.
Time ceil_mul_div(Time k, Time b, Time a) {
  const __int128 num = static_cast<__int128>(k) * b;
  return static_cast<Time>((num + a - 1) / a);
}

}  // namespace

ClockTrajectory ClockTrajectory::perfect() {
  return ClockTrajectory({{0, 0}}, 0);
}

ClockTrajectory::ClockTrajectory(std::vector<Breakpoint> points, Duration eps)
    : points_(std::move(points)), eps_(eps) {
  PSC_CHECK(!points_.empty(), "trajectory needs at least one breakpoint");
  PSC_CHECK(points_.front().t == 0 && points_.front().c == 0,
            "axiom C1: clock must start at (0, 0)");
  PSC_CHECK(eps_ >= 0, "eps must be nonnegative");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    PSC_CHECK(points_[i].t > points_[i - 1].t,
              "breakpoint times must strictly increase");
    PSC_CHECK(points_[i].c > points_[i - 1].c,
              "axiom C3: clock must strictly increase across segments");
  }
  period_begin_ = points_.size() - 1;
  last_ = points_.back();
}

ClockTrajectory::ClockTrajectory(std::vector<Breakpoint> points,
                                 std::size_t period_begin,
                                 std::int64_t segments, Duration eps)
    : ClockTrajectory(std::move(points), eps) {
  PSC_CHECK(period_begin < points_.size(),
            "period_begin " << period_begin << " past the last breakpoint");
  const Breakpoint start = points_[period_begin];
  const Duration period = points_.back().t - start.t;
  PSC_CHECK(period > 0, "period must be positive, got " << period);
  PSC_CHECK(points_.back().c - start.c == period,
            "period does not close: t advances " << period << ", c advances "
                                                 << points_.back().c - start.c);
  PSC_CHECK(segments >= static_cast<std::int64_t>(points_.size() - 1),
            "final breakpoint off the pattern: " << segments
                << " segments end inside the stored breakpoints");
  // The final breakpoint is expanded index `segments`: r segments into the
  // period, after q whole periods.
  const auto per_period = static_cast<std::int64_t>(points_.size() - 1 -
                                                    period_begin);
  const std::int64_t beyond =
      segments - static_cast<std::int64_t>(period_begin);
  const Breakpoint base = points_[period_begin + beyond % per_period];
  const std::int64_t q = beyond / per_period;
  PSC_CHECK(q <= (kTimeMax - std::max(base.t, base.c)) / period,
            "periodic trajectory of " << segments << " segments overflows");
  period_begin_ = period_begin;
  period_ = period;
  last_ = {base.t + q * period, base.c + q * period};
}

ClockTrajectory ClockTrajectory::with_eps(Duration eps) const {
  PSC_CHECK(eps >= 0, "eps must be nonnegative");
  ClockTrajectory out = *this;
  out.eps_ = eps;
  return out;
}

Time ClockTrajectory::clock_at(Time t) const {
  PSC_CHECK(t >= 0, "clock_at(" << t << ")");
  // Beyond the last breakpoint the clock runs at rate 1.
  if (t >= last_.t) return last_.c + (t - last_.t);
  // Move t back into the stored period; the answer moves by the same shift.
  const Time shift = whole_periods(t - points_[period_begin_].t);
  t -= shift;
  // Binary search for the segment containing t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](Time x, const Breakpoint& b) { return x < b.t; });
  // it points to the first breakpoint with .t > t; predecessor exists
  // because points_.front().t == 0 <= t.
  const auto& hi = *it;
  const auto& lo = *(it - 1);
  if (t == lo.t) return lo.c + shift;
  return lerp(lo.t, lo.c, hi.t, hi.c, t) + shift;
}

Time ClockTrajectory::time_first_at(Time c) const {
  if (c <= 0) return 0;
  if (c >= last_.c) return last_.t + (c - last_.c);
  // Invert clock_at(lo.t + u) = lo.c + floor(A*u/B) on the segment whose
  // clock range [lo.c, hi.c) holds c: the least u with floor(A*u/B) >= k is
  // ceil(k*B/A). Every earlier time reads < lo.c <= c, because breakpoint
  // clocks strictly increase and interpolation rounds down; so k = 0 gives
  // lo.t itself.
  const Time shift = whole_periods(c - points_[period_begin_].c);
  const auto [lo, hi] = segment_of_clock(points_, c - shift);
  return lo.t + shift +
         ceil_mul_div(c - shift - lo.c, hi.t - lo.t, hi.c - lo.c);
}

Time ClockTrajectory::time_last_at(Time c) const {
  if (c < 0) {
    PSC_CHECK(false, "time_last_at(" << c << "): clock is never negative");
  }
  if (c >= last_.c) return last_.t + (c - last_.c);
  // The greatest u with floor(A*u/B) <= k is ceil((k+1)*B/A) - 1; k < A
  // keeps it below B, inside the segment.
  const Time shift = whole_periods(c - points_[period_begin_].c);
  const auto [lo, hi] = segment_of_clock(points_, c - shift);
  return lo.t + shift +
         ceil_mul_div(c - shift - lo.c + 1, hi.t - lo.t, hi.c - lo.c) - 1;
}

void ClockTrajectory::validate(Time horizon) const {
  // Within a linear segment |c(t) - t| is extremal at the endpoints, so
  // checking breakpoints (and the horizon point on the final ray) suffices.
  // On a periodic trajectory the stored breakpoints and last_ carry every
  // skew value of the expanded list (see the header).
  const auto check_breakpoint = [&](const Breakpoint& p) {
    PSC_CHECK(std::llabs(p.c - p.t) <= eps_,
              "C_eps violated at breakpoint t=" << format_time(p.t)
                                                << " c=" << format_time(p.c)
                                                << " eps=" << format_time(eps_));
  };
  for (const auto& p : points_) check_breakpoint(p);
  check_breakpoint(last_);
  if (horizon > last_.t) {
    const Time c_end = last_.c + (horizon - last_.t);
    PSC_CHECK(std::llabs(c_end - horizon) <= eps_,
              "C_eps violated on final ray");
  }
}

// ---------------------------------------------------------------------------
// Drift models
// ---------------------------------------------------------------------------

ClockTrajectory PerfectDrift::generate(Duration /*eps*/, Time /*horizon*/,
                                       Rng& /*rng*/) const {
  return ClockTrajectory::perfect();
}

OffsetDrift::OffsetDrift(double frac) : DriftModel("offset"), frac_(frac) {
  PSC_CHECK(frac >= -1.0 && frac <= 1.0, "offset frac=" << frac);
}

ClockTrajectory OffsetDrift::generate(Duration eps, Time /*horizon*/,
                                      Rng& /*rng*/) const {
  const Time off = static_cast<Time>(frac_ * static_cast<double>(eps));
  if (off == 0 || eps == 0) return ClockTrajectory::perfect();
  std::vector<Breakpoint> pts;
  pts.push_back({0, 0});
  if (off > 0) {
    // Rate 2 until the offset is reached: c - t grows 1 per unit time.
    pts.push_back({off, 2 * off});
  } else {
    // Rate 1/2: c - t shrinks 1/2 per unit time; needs duration 2|off|.
    pts.push_back({-2 * off, -off});
  }
  return ClockTrajectory(std::move(pts), eps);
}

ZigzagDrift::ZigzagDrift(double rho, double band_frac)
    : DriftModel("zigzag"), rho_(rho), band_frac_(band_frac) {
  PSC_CHECK(rho > 0 && rho < 1, "rho=" << rho);
  PSC_CHECK(band_frac > 0 && band_frac <= 1, "band_frac=" << band_frac);
}

ClockTrajectory ZigzagDrift::generate(Duration eps, Time horizon,
                                      Rng& rng) const {
  if (eps == 0) return ClockTrajectory::perfect();
  const bool start_up = rng.flip(0.5);
  const Time band = std::max<Time>(
      1, static_cast<Time>(band_frac_ * static_cast<double>(eps)));
  // Time to cross the band at skew-rate rho: 2*band / rho.
  const Time half =
      std::max<Time>(2, static_cast<Time>(2.0 * static_cast<double>(band) /
                                          rho_));
  std::vector<Breakpoint> pts;
  pts.push_back({0, 0});
  Time t = 0, c = 0;
  bool up = true;
  // First half-swing: from offset 0 to +band or -band (random phase).
  {
    const Time dt = half / 2;
    const Time dc = start_up ? dt + band : dt - band;
    PSC_CHECK(dc > 0, "zigzag produced nonincreasing clock; rho too large");
    t += dt;
    c += dc;
    pts.push_back({t, c});
    up = !start_up;
  }
  // Then full swings while t < horizon + half: n of them. They alternate
  // between two shapes, so once both are written the list repeats with
  // period (2*half, 2*half), and the rest is the count.
  const Time swings =
      t < horizon + half ? (horizon + half - t + half - 1) / half : 0;
  for (Time i = 0; i < std::min<Time>(swings, 2); ++i) {
    const Time dt = half;
    // Swing across the whole band: skew changes by 2*band.
    const Time dc = up ? dt + 2 * band : dt - 2 * band;
    PSC_CHECK(dc > 0, "zigzag produced nonincreasing clock; rho too large");
    t += dt;
    c += dc;
    pts.push_back({t, c});
    up = !up;
  }
  if (swings < 2) return ClockTrajectory(std::move(pts), eps);
  return ClockTrajectory(std::move(pts), 1, 1 + swings, eps);
}

RandomDrift::RandomDrift(double rho, Duration mean_segment, double band_frac)
    : DriftModel("random"),
      rho_(rho),
      mean_segment_(mean_segment),
      band_frac_(band_frac) {
  PSC_CHECK(rho > 0 && rho < 1, "rho=" << rho);
  PSC_CHECK(mean_segment > 0, "mean_segment=" << mean_segment);
}

ClockTrajectory RandomDrift::generate(Duration eps, Time horizon,
                                      Rng& rng) const {
  if (eps == 0) return ClockTrajectory::perfect();
  const auto band = static_cast<double>(eps) * band_frac_;
  std::vector<Breakpoint> pts;
  pts.push_back({0, 0});
  Time t = 0, c = 0;
  while (t < horizon + mean_segment_) {
    const Time dt = std::max<Time>(
        1, rng.uniform(mean_segment_ / 2, mean_segment_ * 3 / 2));
    const double rate = 1.0 + rho_ * (2.0 * rng.uniform01() - 1.0);
    Time dc = std::max<Time>(1, static_cast<Time>(
                                    rate * static_cast<double>(dt)));
    // Reflect off the band edges: clamp the resulting skew into [-band, band].
    const double skew =
        static_cast<double>((c + dc) - (t + dt));
    if (skew > band) dc -= static_cast<Time>(skew - band);
    if (skew < -band) dc += static_cast<Time>(-band - skew);
    if (dc < 1) dc = 1;
    t += dt;
    c += dc;
    pts.push_back({t, c});
  }
  return ClockTrajectory(std::move(pts), eps);
}

ClockTrajectory OpposingOffsetDrift::generate(Duration eps, Time horizon,
                                              Rng& rng) const {
  const double frac = rng.flip(0.5) ? 1.0 : -1.0;
  return OffsetDrift(frac).generate(eps, horizon, rng);
}

std::vector<std::unique_ptr<DriftModel>> standard_drift_models() {
  std::vector<std::unique_ptr<DriftModel>> out;
  out.push_back(std::make_unique<PerfectDrift>());
  out.push_back(std::make_unique<OffsetDrift>(+1.0));
  out.push_back(std::make_unique<OffsetDrift>(-1.0));
  out.push_back(std::make_unique<ZigzagDrift>(0.25));
  out.push_back(std::make_unique<RandomDrift>(0.1, milliseconds(1)));
  out.push_back(std::make_unique<OpposingOffsetDrift>());
  return out;
}

}  // namespace psc
