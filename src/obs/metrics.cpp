#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "util/check.hpp"

namespace psc {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  PSC_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                    bounds_.end(),
            "histogram bounds must be strictly increasing");
  // Recognize the zero-centred doubling ladder slack_bounds() builds
  // (-lo*2^(m-1) ... -lo, 0, lo ... lo*2^(m-1)) with an integral lo: an
  // integral sample's bucket is then a function of its bit width (see
  // rungs_below). Doubling is exact in floating point, so the equality
  // tests below are not brittle.
  const std::size_t n = bounds_.size();
  if (n < 3 || n % 2 == 0) return;
  const std::size_t m = n / 2;
  const double lo = bounds_[m + 1];
  if (bounds_[m] != 0.0 || !(lo >= 1.0) || lo != std::floor(lo) ||
      !(bounds_[n - 1] <= static_cast<double>(kLadderLimit))) {
    return;
  }
  double expect = lo;
  for (std::size_t k = 0; k < m; ++k) {
    if (bounds_[m + 1 + k] != expect || bounds_[m - 1 - k] != -expect) return;
    expect *= 2.0;
  }
  const auto lo_int = static_cast<std::uint64_t>(lo);
  const int lo_width = std::bit_width(lo_int);
  ladder_mid_ = m;
  rungs_.resize(65);
  for (int b = 0; b <= 64; ++b) {
    const int k = b - lo_width;
    Rung& r = rungs_[static_cast<std::size_t>(b)];
    if (k < 0) {
      r = {UINT64_MAX, 0};
    } else if (static_cast<std::size_t>(k) < m) {
      r = {lo_int << k, static_cast<std::uint32_t>(k)};
    } else {
      r = {UINT64_MAX, static_cast<std::uint32_t>(m)};
    }
  }
}

std::vector<double> Histogram::linear_bounds(double lo, double hi,
                                             std::size_t n) {
  PSC_CHECK(n >= 1 && hi > lo, "bad linear bounds lo=" << lo << " hi=" << hi);
  std::vector<double> out;
  out.reserve(n + 1);
  for (std::size_t k = 0; k <= n; ++k) {
    out.push_back(lo + (hi - lo) * static_cast<double>(k) /
                           static_cast<double>(n));
  }
  return out;
}

std::vector<double> Histogram::exponential_bounds(double lo, double factor,
                                                  std::size_t n) {
  PSC_CHECK(n >= 1 && lo > 0 && factor > 1,
            "bad exponential bounds lo=" << lo << " factor=" << factor);
  std::vector<double> out;
  out.reserve(n);
  double b = lo;
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

double Histogram::percentile(double p) const {
  // NaN on empty data, matching Samples::percentile: a zero-sample series
  // still renders (write_jsonl maps non-finite values to 0).
  if (n_ == 0) return std::numeric_limits<double>::quiet_NaN();
  const double target =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    const std::uint64_t below = seen;
    seen += buckets_[b];
    if (static_cast<double>(seen) < target) continue;
    // Interpolate inside the selected bucket: [lower, upper].
    const double lower = b == 0 ? min_ : bounds_[b - 1];
    const double upper = b < bounds_.size() ? bounds_[b] : max_;
    const double frac = (target - static_cast<double>(below)) /
                        static_cast<double>(buckets_[b]);
    const double v = lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    return std::clamp(v, min_, max_);
  }
  return max_;  // p rounded past the last sample
}

MetricId MetricsRegistry::intern(std::string_view name) {
  const auto it = index_.find(std::string(name));
  if (it != index_.end()) return it->second;
  const MetricId id = static_cast<MetricId>(slots_.size());
  auto slot = std::make_unique<Slot>();
  slot->name = std::string(name);
  slot->kind = Kind::kCounter;  // provisional; fixed by the typed getter
  index_.emplace(slot->name, id);
  slots_.push_back(std::move(slot));
  return id;
}

const std::string& MetricsRegistry::name(MetricId id) const {
  PSC_CHECK(id < slots_.size(), "unknown metric id " << id);
  return slots_[id]->name;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const MetricId id = intern(name);
  Slot& s = *slots_[id];
  if (!s.c && !s.g && !s.h) {
    s.kind = Kind::kCounter;
    s.c = std::make_unique<Counter>();
  }
  PSC_CHECK(s.kind == Kind::kCounter && s.c,
            "metric '" << s.name << "' already registered with another kind");
  return *s.c;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const MetricId id = intern(name);
  Slot& s = *slots_[id];
  if (!s.c && !s.g && !s.h) {
    s.kind = Kind::kGauge;
    s.g = std::make_unique<Gauge>();
  }
  PSC_CHECK(s.kind == Kind::kGauge && s.g,
            "metric '" << s.name << "' already registered with another kind");
  return *s.g;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  const MetricId id = intern(name);
  Slot& s = *slots_[id];
  if (!s.c && !s.g && !s.h) {
    s.kind = Kind::kHistogram;
    s.h = std::make_unique<Histogram>(std::move(bounds));
  }
  PSC_CHECK(s.kind == Kind::kHistogram && s.h,
            "metric '" << s.name << "' already registered with another kind");
  return *s.h;
}

const MetricsRegistry::Slot* MetricsRegistry::find(std::string_view name,
                                                   Kind kind) const {
  const auto it = index_.find(std::string(name));
  if (it == index_.end()) return nullptr;
  const Slot& s = *slots_[it->second];
  return s.kind == kind ? &s : nullptr;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const Slot* s = find(name, Kind::kCounter);
  return s ? s->c.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const Slot* s = find(name, Kind::kGauge);
  return s ? s->g.get() : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  const Slot* s = find(name, Kind::kHistogram);
  return s ? s->h.get() : nullptr;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

namespace {

// JSON has no inf/nan; empty metrics report 0.
void put_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  os << v;
}

}  // namespace

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  for (const auto& slot : slots_) {
    const Slot& s = *slot;
    os << "{\"name\":\"" << json_escape(s.name) << "\"";
    switch (s.kind) {
      case Kind::kCounter:
        os << ",\"type\":\"counter\",\"value\":" << (s.c ? s.c->value() : 0);
        break;
      case Kind::kGauge: {
        os << ",\"type\":\"gauge\",\"samples\":" << s.g->samples()
           << ",\"last\":";
        put_number(os, s.g->last());
        os << ",\"min\":";
        put_number(os, s.g->min());
        os << ",\"max\":";
        put_number(os, s.g->max());
        os << ",\"mean\":";
        put_number(os, s.g->mean());
        break;
      }
      case Kind::kHistogram: {
        const Histogram& h = *s.h;
        os << ",\"type\":\"histogram\",\"count\":" << h.count() << ",\"sum\":";
        put_number(os, h.sum());
        os << ",\"min\":";
        put_number(os, h.min());
        os << ",\"max\":";
        put_number(os, h.max());
        os << ",\"p50\":";
        put_number(os, h.p50());
        os << ",\"p99\":";
        put_number(os, h.p99());
        os << ",\"bounds\":[";
        for (std::size_t k = 0; k < h.bounds().size(); ++k) {
          if (k) os << ",";
          put_number(os, h.bounds()[k]);
        }
        os << "],\"buckets\":[";
        for (std::size_t k = 0; k < h.buckets().size(); ++k) {
          if (k) os << ",";
          os << h.buckets()[k];
        }
        os << "]";
        break;
      }
    }
    os << "}\n";
  }
}

}  // namespace psc
