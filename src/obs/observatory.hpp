// The bound-slack observatory: measure *how close* a run comes to the
// paper's quantitative bounds, not just whether it stayed inside them.
//
// BoundSlackProbe is a MeteredProbe writing into a MetricsRegistry. For
// every clock reading, delivery, Simulation-1 release, and MMT tick/step
// the window meter measures (analysis/meter.hpp, the measurement
// TraceChecker and CertificateProbe evaluate) it computes the *signed
// distance to the governing theoretical bound* (analysis/windows.hpp): the
// C_eps drift envelope, the [d1, d2] delivery band, the Theorem 4.7
// clock-time window, and the MMT [0, ell] boundmap. Positive slack is
// adversarial room left unused, zero is a tight schedule, negative is a
// bound violation (the same condition PSC101/102/104/105 report). Slack
// distributions land in per-kind histograms plus per-node / per-channel
// min-tracking gauges, so "minimize slack" is a first-class search signal
// for adversarial schedule hunting and "min slack >= 0" is a sweep-cell
// gate for report generation (tools/psc-report).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "analysis/meter.hpp"
#include "analysis/windows.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"

namespace psc {

struct SlackOptions {
  // C_eps accuracy; negative disables skew slack.
  Duration eps = -1;
  // Physical channel bounds; d2 < 0 disables delivery and Theorem 4.7
  // slack.
  Duration d1 = -1;
  Duration d2 = -1;
  // MMT boundmap upper bound; negative disables tick/step slack.
  Duration ell = -1;
  // Per-node (skew, Theorem 4.7, tick) and per-channel (delivery)
  // min-tracking gauges beside the aggregate histograms. Off for huge
  // assemblies, where registering a gauge per node and channel in every
  // run costs more than the probe itself.
  bool per_entity = true;
};

class BoundSlackProbe final : public MeteredProbe {
 public:
  BoundSlackProbe(MetricsRegistry& reg, SlackOptions opts);

  // Slack is measured per event — opt out of the per-advance dispatch.
  bool observes_time() const override { return false; }

  void on_measured(const TimedEvent& e, const Measurement& m,
                   const Machine& owner) override;

  // Minimum observed slack per bound kind; kTimeMax when that bound was
  // never measured (disabled, or no matching events).
  Duration min_ceps() const { return min_ceps_; }
  Duration min_delivery() const { return min_delivery_; }
  Duration min_thm47() const { return min_thm47_; }
  Duration min_mmt() const { return min_mmt_; }
  // Minimum across all measured kinds; kTimeMax when nothing was measured.
  Duration min_slack() const;
  // Samples with negative slack — the violation count PSC1xx would report.
  std::uint64_t violations() const { return violations_->value(); }

 private:
  // Delivery-band slack of a physical delivery, Theorem 4.7 window slack
  // of a Simulation 1 buffer release.
  void feed_delivery(const TimedEvent& e, const Delivery& d,
                     const Machine& owner);
  void feed(Histogram& hist, Duration& min_seen, Duration slack) {
    hist.add(slack);
    if (slack < min_seen) min_seen = slack;
    if (slack < 0) violations_->add();
  }
  // Per-entity gauges are cached by node id / machine identity so the hot
  // path never builds a name string; the registry name is built once on
  // first sight ("<prefix>.node<i>", "<prefix>.<channel name>"), so the
  // registry keeps first-sight order.
  Gauge& node_gauge(std::vector<Gauge*>& by_node, const char* prefix,
                    int node) {
    const auto i = static_cast<std::size_t>(node);
    if (i < by_node.size() && by_node[i] != nullptr) return *by_node[i];
    return add_node_gauge(by_node, prefix, node);
  }
  Gauge& add_node_gauge(std::vector<Gauge*>& by_node, const char* prefix,
                        int node);
  Gauge* channel_gauge(const Machine& owner);

  MetricsRegistry& reg_;
  SlackOptions opts_;
  BoundWindow ceps_, delivery_, thm47_, mmt_;

  Histogram* ceps_hist_ = nullptr;
  Histogram* delivery_hist_ = nullptr;
  Histogram* thm47_hist_ = nullptr;
  Histogram* mmt_hist_ = nullptr;
  Counter* violations_ = nullptr;
  Duration min_ceps_ = kTimeMax;
  Duration min_delivery_ = kTimeMax;
  Duration min_thm47_ = kTimeMax;
  Duration min_mmt_ = kTimeMax;

  // Per-node gauges by node id (nullptr until first sight).
  std::vector<Gauge*> ceps_gauges_, thm47_gauges_, mmt_gauges_;
  std::unordered_map<const Machine*, Gauge*> channel_gauges_;
};

// Symmetric histogram bounds for signed slack values: duration_bounds()
// (probes.hpp) mirrored through zero, so violations (negative slack) and
// margins resolve at the same granularity.
std::vector<double> slack_bounds();

}  // namespace psc
