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
// exponential helpers provided): per-sample cost is an upper_bound over a
// small vector, or a table lookup on the zero-centred doubling ladder the
// slack histograms use; memory is O(buckets) regardless of sample count,
// and percentile estimates are bucket-interpolated.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
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
  void set(double v) {
    last_ = v;
    if (n_ == 0) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    sum_ += v;
    ++n_;
  }
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
  // scheduler ns/event).
  void add(double x) { count(bucket(x), x); }
  // An integral sample — every Duration the slack probe feeds — lands in
  // the bucket its double would, without the float-to-integer round trip.
  template <std::signed_integral T>
  void add(T x) {
    count(bucket(static_cast<std::int64_t>(x)), static_cast<double>(x));
  }
  // Index of the bucket `x` lands in: the first bound >= x, or
  // bounds().size() (the overflow bucket) past the last bound and for NaN.
  // On a zero-centred doubling ladder (slack_bounds()) an integral sample
  // takes its rung from its bit width; anything else binary-searches, whose
  // serially dependent loads cost ~4x more per sample.
  std::size_t bucket(double x) const {
    constexpr auto kLimit = static_cast<double>(kLadderLimit);
    if (!rungs_.empty() && x >= -kLimit && x <= kLimit) {
      const auto i = static_cast<std::int64_t>(x);
      if (static_cast<double>(i) == x) return ladder_index(i);
    }
    return search_index(x);
  }
  // The bucket of static_cast<double>(x), which is x itself within the
  // ladder's range.
  std::size_t bucket(std::int64_t x) const {
    if (!rungs_.empty() && x >= -kLadderLimit && x <= kLadderLimit) {
      return ladder_index(x);
    }
    return search_index(static_cast<double>(x));
  }
  // Whether bucket() takes integral samples' rungs from the ladder table.
  bool doubling_ladder() const { return !rungs_.empty(); }
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

  // Integral samples within +-2^53, where a double holds every integer,
  // take the ladder path; a ladder's rungs are integers up to 2^53, so
  // every comparison on it is exact.
  static constexpr std::int64_t kLadderLimit = std::int64_t{1} << 53;

  void count(std::size_t bucket, double x) {
    ++buckets_[bucket];
    ++n_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  // The bucket of an integral sample within +-kLadderLimit on the ladder.
  std::size_t ladder_index(std::int64_t x) const {
    const auto u = static_cast<std::uint64_t>(x);
    // x > 0 lies above the zero bound and the positive rungs below it;
    // x <= 0 lies above the negative rungs -r with r > -x, i.e. all but
    // the rungs <= -x (the rungs < 1 - x, as rungs are integral).
    return x > 0 ? ladder_mid_ + 1 + rungs_below(u)
                 : ladder_mid_ - rungs_below(1 - u);
  }

  // The number of positive rungs lo*2^k strictly below z. A z of bit width
  // b has only rung k = b - bit_width(lo) in its range [2^(b-1), 2^b): every
  // lower rung is below z and every higher one above it, so the count is
  // that rung's index plus one compare against it (clamped to the ladder;
  // a bound of UINT64_MAX never compares below).
  std::size_t rungs_below(std::uint64_t z) const {
    const Rung& r = rungs_[static_cast<std::size_t>(std::bit_width(z))];
    return r.base + (z > r.bound ? 1u : 0u);
  }

  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t n_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::max();
  double max_ = std::numeric_limits<double>::lowest();
  // The zero-centred doubling ladder -lo*2^(m-1) .. -lo, 0, lo ..
  // lo*2^(m-1) with integral lo >= 1, recognized at construction:
  // ladder_mid_ == m indexes the zero bound, and rungs_ holds one Rung per
  // bit width 0..64 (empty for any other bounds).
  struct Rung {
    std::uint64_t bound;  // the one rung of this bit width's range
    std::uint32_t base;   // rungs below every z of this bit width
  };
  std::size_t ladder_mid_ = 0;
  std::vector<Rung> rungs_;
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
