#include "obs/observatory.hpp"

#include <algorithm>
#include <string>

#include "core/machine.hpp"
#include "obs/probes.hpp"

namespace psc {

// --- BoundSlackProbe --------------------------------------------------------

std::vector<double> slack_bounds() {
  const std::vector<double> pos = duration_bounds();
  std::vector<double> out;
  out.reserve(2 * pos.size() + 1);
  for (auto it = pos.rbegin(); it != pos.rend(); ++it) out.push_back(-*it);
  out.push_back(0.0);
  out.insert(out.end(), pos.begin(), pos.end());
  return out;
}

BoundSlackProbe::BoundSlackProbe(MetricsRegistry& reg, SlackOptions opts)
    : MeteredProbe(/*mmt_gaps=*/opts.ell >= 0), reg_(reg), opts_(opts) {
  if (opts_.eps >= 0) {
    ceps_ = ceps_window(opts_.eps, opts_.ell);
    ceps_hist_ = &reg_.histogram("slack.ceps_ns", slack_bounds());
  }
  if (opts_.d2 >= 0) {
    delivery_ = delivery_window(opts_.d1, opts_.d2);
    delivery_hist_ = &reg_.histogram("slack.delivery_ns", slack_bounds());
    if (opts_.eps >= 0) {
      thm47_ = thm47_window(opts_.d1, opts_.d2, opts_.eps);
      thm47_hist_ = &reg_.histogram("slack.thm47_ns", slack_bounds());
    }
  }
  if (opts_.ell >= 0) {
    mmt_ = mmt_window(opts_.ell);
    mmt_hist_ = &reg_.histogram("slack.mmt_ns", slack_bounds());
  }
  violations_ = &reg_.counter("slack.violations");
}

Duration BoundSlackProbe::min_slack() const {
  return std::min(std::min(min_ceps_, min_delivery_),
                  std::min(min_thm47_, min_mmt_));
}

Gauge& BoundSlackProbe::add_node_gauge(std::vector<Gauge*>& by_node,
                                       const char* prefix, int node) {
  const auto i = static_cast<std::size_t>(node);
  if (i >= by_node.size()) by_node.resize(i + 1, nullptr);
  by_node[i] =
      &reg_.gauge(std::string(prefix) + ".node" + std::to_string(node));
  return *by_node[i];
}

Gauge* BoundSlackProbe::channel_gauge(const Machine& owner) {
  auto [it, fresh] = channel_gauges_.try_emplace(&owner, nullptr);
  if (fresh) {
    it->second = &reg_.gauge("slack.delivery_ns." + owner.name());
  }
  return it->second;
}

void BoundSlackProbe::on_measured(const TimedEvent& e, const Measurement& m,
                                  const Machine& owner) {
  // PSC101's quantity: the signed skew c(t) - t must sit in the C_eps band
  // (widened by ell under MMT, where the visible clock is the last tick).
  if (ceps_hist_ && m.skew.has_value()) {
    const Duration slack = ceps_.slack(*m.skew);
    feed(*ceps_hist_, min_ceps_, slack);
    if (opts_.per_entity && e.action.node >= 0) {
      node_gauge(ceps_gauges_, "slack.ceps_ns", e.action.node)
          .set(static_cast<double>(slack));
    }
  }
  if (delivery_hist_ && m.delivery.leg != Delivery::Leg::kNone) {
    feed_delivery(e, m.delivery, owner);
  }
  if (!mmt_hist_) return;
  // Boundmap slack is one-sided: [0, ell]'s lower edge is trivially
  // satisfied by any gap (a *small* gap is eagerness, not tightness), so
  // only the distance to the deadline ell counts. The meter measures a
  // tick gap only for a TICK with a node.
  if (m.tick_gap.has_value()) {
    const Duration slack = mmt_.hi - *m.tick_gap;
    feed(*mmt_hist_, min_mmt_, slack);
    if (opts_.per_entity) {
      node_gauge(mmt_gauges_, "slack.mmt_ns", e.action.node)
          .set(static_cast<double>(slack));
    }
  }
  if (m.step_gap.has_value()) {
    feed(*mmt_hist_, min_mmt_, mmt_.hi - *m.step_gap);
  }
}

void BoundSlackProbe::feed_delivery(const TimedEvent& e, const Delivery& d,
                                    const Machine& owner) {
  switch (d.leg) {
    case Delivery::Leg::kTimed:
    case Delivery::Leg::kPhysical: {
      const Duration slack = delivery_.slack(d.latency);
      feed(*delivery_hist_, min_delivery_, slack);
      if (opts_.per_entity) {
        channel_gauge(owner)->set(static_cast<double>(slack));
      }
      return;
    }
    case Delivery::Leg::kRelease: {
      if (!thm47_hist_) return;
      const Duration slack = thm47_.slack(d.latency);
      feed(*thm47_hist_, min_thm47_, slack);
      if (opts_.per_entity && e.action.node >= 0) {
        node_gauge(thm47_gauges_, "slack.thm47_ns", e.action.node)
            .set(static_cast<double>(slack));
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace psc
