#include "obs/instrument.hpp"

#include "analysis/bounds.hpp"
#include "analysis/trace_check.hpp"
#include "obs/prof.hpp"
#include "runtime/executor.hpp"

namespace psc {

RunObserver::RunObserver(const ObsOptions* opts) {
  if (opts != nullptr) opts_ = *opts;
  if (opts_.chrome_out != nullptr) {
    chrome_probe_ = std::make_unique<ChromeTraceProbe>(*opts_.chrome_out);
  }
}

RunObserver::~RunObserver() = default;

MetricsRegistry* RunObserver::sink() {
  if (opts_.registry != nullptr) return opts_.registry;
  if (opts_.chrome_out == nullptr) return nullptr;
  if (!scratch_) scratch_ = std::make_unique<MetricsRegistry>();
  return scratch_.get();
}

ChromeTraceWriter* RunObserver::chrome() {
  return chrome_probe_ ? &chrome_probe_->writer() : nullptr;
}

ClockSkewProbe* RunObserver::add_clock_skew(
    std::vector<std::shared_ptr<const ClockTrajectory>> trajs, Duration eps) {
  MetricsRegistry* reg = sink();
  if (reg == nullptr) return nullptr;
  auto p = std::make_unique<ClockSkewProbe>(*reg, std::move(trajs), eps,
                                            chrome());
  ClockSkewProbe* out = p.get();
  probes_.push_back(std::move(p));
  return out;
}

ChannelLatencyProbe* RunObserver::add_channel_latency(Duration d1,
                                                      Duration d2) {
  MetricsRegistry* reg = sink();
  if (reg == nullptr) return nullptr;
  auto p = std::make_unique<ChannelLatencyProbe>(*reg, d1, d2);
  ChannelLatencyProbe* out = p.get();
  probes_.push_back(std::move(p));
  return out;
}

Sim1BufferProbe* RunObserver::add_buffers() {
  MetricsRegistry* reg = sink();
  if (reg == nullptr) return nullptr;
  auto p = std::make_unique<Sim1BufferProbe>(*reg, chrome());
  Sim1BufferProbe* out = p.get();
  probes_.push_back(std::move(p));
  return out;
}

MmtProbe* RunObserver::add_mmt() {
  MetricsRegistry* reg = sink();
  if (reg == nullptr) return nullptr;
  auto p = std::make_unique<MmtProbe>(*reg);
  MmtProbe* out = p.get();
  probes_.push_back(std::move(p));
  return out;
}

BoundSlackProbe* RunObserver::add_slack(const SlackOptions& slack_opts) {
  if (!opts_.slack) return nullptr;
  MetricsRegistry* reg = sink();
  if (reg == nullptr) return nullptr;
  auto p = std::make_unique<BoundSlackProbe>(*reg, slack_opts);
  slack_probe_ = p.get();
  probes_.push_back(std::move(p));
  return slack_probe_;
}

void RunObserver::attach(Executor& exec) {
  if (opts_.flight != nullptr) exec.attach_flight(opts_.flight);
  if (opts_.profile != nullptr) {
    exec.attach_profiler(opts_.profile);
    // With a chrome document in play, stream the profiler's per-phase
    // totals as counter tracks. The probe only writes on time advances, so
    // its position relative to the first-attached chrome probe (which
    // closes the document at on_run_end) does not matter.
    if (ChromeTraceWriter* w = chrome()) {
      probes_.push_back(
          std::make_unique<ProfCounterProbe>(*opts_.profile, *w));
    }
  }
  if (chrome_probe_) exec.attach_probe(chrome_probe_.get());
  if (opts_.causal != nullptr) {
    opts_.causal->set_trace(chrome());
    exec.attach_probe(opts_.causal);
  }
  if (opts_.lint != nullptr) exec.attach_probe(opts_.lint);
  if (opts_.cert != nullptr) {
    // Derive the per-edge windows from the composition as assembled — the
    // probe then checks observed latencies against its own certificates.
    if (!opts_.cert->harvested()) opts_.cert->harvest(exec.composition());
    exec.attach_probe(opts_.cert);
  }
  if (opts_.exec_stats) {
    MetricsRegistry* reg = sink();
    if (reg != nullptr) {
      probes_.push_back(std::make_unique<SchedulerStatsProbe>(*reg, exec));
    }
  }
  for (const auto& p : probes_) exec.attach_probe(p.get());
}

}  // namespace psc
