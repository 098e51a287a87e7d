// MetricsRegistry: counters, gauges, and fixed-bucket histograms keyed by
// interned names.
//
// The registry is the sink the built-in probes (probes.hpp) write into and
// the JSONL exporter reads out of. Design constraints, in order:
//   * hot-path writes are field updates on a handle obtained once at setup
//     (no name lookup per sample);
//   * handles are stable — registering more metrics never invalidates an
//     existing Counter/Gauge/Histogram reference;
//   * a name maps to exactly one metric of one kind (re-requesting returns
//     the same object, so several runs can aggregate into one registry;
//     requesting an existing name as a different kind is a CheckError).
//
// Histograms use fixed bucket bounds chosen at registration (linear or
// exponential helpers provided): per-sample cost is a branchless-ish
// upper_bound over a small vector, memory is O(buckets) regardless of
// sample count, and percentile estimates are bucket-interpolated.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace psc {

using MetricId = std::uint32_t;

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

// Last/min/max/mean over set() calls — a sampled instantaneous quantity.
class Gauge {
 public:
  void set(double v);
  std::size_t samples() const { return n_; }
  double last() const { return last_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double last_ = 0, min_ = 0, max_ = 0, sum_ = 0;
};

class Histogram {
 public:
  // `bounds` are strictly increasing bucket upper bounds; an implicit
  // overflow bucket (+inf) is appended, so buckets().size() ==
  // bounds.size() + 1. Sample x lands in the first bucket with x <= bound.
  explicit Histogram(std::vector<double> bounds);

  // n+1 bounds evenly spaced over [lo, hi].
  static std::vector<double> linear_bounds(double lo, double hi,
                                           std::size_t n);
  // lo, lo*factor, lo*factor^2, ... (n bounds, factor > 1).
  static std::vector<double> exponential_bounds(double lo, double factor,
                                                std::size_t n);

  // Inline: runs once per observed sample on probe hot paths (the
  // bench_executor overhead gates hold attached probes under 5% of
  // scheduler ns/event). Zero-centered doubling ladders (slack_bounds())
  // are indexed arithmetically from the sample's binary exponent; anything
  // else falls back to binary search, whose serially dependent loads cost
  // ~4x more per sample.
  void add(double x) {
    const std::size_t i =
        pow2_mid_ != 0 ? pow2_index(x) : search_index(x);
    ++buckets_[i];
    ++n_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }
  // p in [0, 100]; linear interpolation inside the selected bucket,
  // clamped to the observed [min, max]. An estimate, exact at bucket edges.
  // NaN when the histogram holds no samples.
  double percentile(double p) const;
  // The quantiles every consumer actually reads (psc-report, observatory,
  // the JSONL exporter) — use these instead of re-walking buckets()/sum().
  double p50() const { return percentile(50); }
  double p90() const { return percentile(90); }
  double p99() const { return percentile(99); }

 private:
  // Index of the first bound >= x (== bounds_.size() past the last bound,
  // i.e. the overflow bucket). The generic path; ~19ns/sample on a
  // 49-bound ladder because each probe's load depends on the previous
  // comparison.
  std::size_t search_index(double x) const {
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), x,
                                     [](double v, double b) { return v <= b; });
    return static_cast<std::size_t>(it - bounds_.begin());
  }

  // Same result for a zero-centered doubling ladder
  // (-lo*2^(m-1) .. -lo, 0, lo .. lo*2^(m-1)), detected at construction:
  // bounds_[pow2_mid_] == 0 and positive bounds double from lo. The raw
  // exponent of |x|/lo lands within one step of the exact rung (1/lo and
  // the product both round), so two predictable nudges against the stored
  // bounds make it exact.
  std::size_t pow2_index(double x) const {
    const double y = x < 0 ? -x : x;
    const double lo = bounds_[pow2_mid_ + 1];
    if (y <= lo) {
      // |x| inside the innermost rung: 0 maps to the zero bound, (0, lo]
      // to the first positive bound, [-lo, 0) to -lo only when exact.
      if (x == 0.0) return pow2_mid_;
      if (x > 0.0) return pow2_mid_ + 1;
      return pow2_mid_ - (y == lo ? 1 : 0);
    }
    if (y != y) return bounds_.size();  // NaN: overflow, as search_index
    const int top = static_cast<int>(pow2_mid_) - 1;
    int e = static_cast<int>((std::bit_cast<std::uint64_t>(y * pow2_inv_lo_)
                              >> 52) & 0x7ff) - 1023;
    if (e < 0) e = 0;
    if (e > top) e = top;
    const double* pos = bounds_.data() + pow2_mid_ + 1;
    if (e > 0 && pos[e] > y) --e;
    if (e < top && pos[e + 1] <= y) ++e;
    // e is now the exact floor of log2(y/lo), clamped to [0, top].
    if (x > 0) {
      // First rung >= y is e, or e+1 when y overshoots it; e+1 past the
      // top rung is bounds_.size(), the overflow bucket.
      return pow2_mid_ + 1 + static_cast<std::size_t>(e) +
             (pos[e] < y ? 1u : 0u);
    }
    // Negative side mirrors: x <= -lo*2^k first holds at the largest
    // k <= floor(log2(y/lo)), stored at index pow2_mid_ - 1 - e.
    return pow2_mid_ - 1 - static_cast<std::size_t>(e);
  }

  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t n_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::max();
  double max_ = std::numeric_limits<double>::lowest();
  // pow2_index parameters; pow2_mid_ == 0 means "no fast path" (a ladder
  // always has at least one negative bound, so its mid is >= 1).
  std::size_t pow2_mid_ = 0;
  double pow2_inv_lo_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create. References stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // `bounds` are used only on first registration of `name`.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  // Interning: every registered name has a dense id (registration order).
  MetricId intern(std::string_view name);
  const std::string& name(MetricId id) const;
  std::size_t size() const { return slots_.size(); }

  // Read-only lookups (nullptr when absent or of another kind).
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  // One self-contained JSON object per line, e.g.
  //   {"type":"counter","name":"channel.sent","value":42}
  // Histograms carry bounds/buckets plus summary stats, so a dump is
  // enough to rebuild the distribution.
  void write_jsonl(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Slot {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };

  const Slot* find(std::string_view name, Kind kind) const;

  std::vector<std::unique_ptr<Slot>> slots_;  // index = MetricId
  std::unordered_map<std::string, MetricId> index_;
};

// JSON string escaping shared by the exporters.
std::string json_escape(std::string_view s);

}  // namespace psc
