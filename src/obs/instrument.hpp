// One-stop per-run instrumentation assembly.
//
// ObsOptions is what callers configure (usually from command-line flags or
// environment variables): a MetricsRegistry to aggregate into and/or a
// stream to receive a Chrome trace. RunObserver turns the options into a
// concrete set of probes for one Executor run, owns them, and wires shared
// state (all metric probes write into the same registry; probes that can
// render counter tracks share the chrome writer).
//
// Usage (what rw/harness.cpp does):
//   RunObserver obs(cfg.obs);             // null options -> inert observer
//   obs.add_clock_skew(trajs, eps);
//   obs.add_channel_latency(d1, d2);
//   auto* bp = obs.add_buffers();         // then bp->watch(...) each buffer
//   obs.attach(exec);
//   exec.run();                           // chrome doc finalized at run end
#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "clock/trajectory.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/probes.hpp"
#include "obs/trace_export.hpp"

namespace psc {

class CertificateProbe;
class Executor;
class FlightRecorder;
class InvariantProbe;
class Profiler;

struct ObsOptions {
  // Sink for the built-in metric probes; nullptr disables them.
  MetricsRegistry* registry = nullptr;
  // Destination for a Chrome trace_event document; nullptr disables it.
  // The stream must outlive the run.
  std::ostream* chrome_out = nullptr;
  // Caller-owned causal-tracing probe (obs/causal.hpp). attach() wires it
  // right after the chrome probe, so the flow events it writes into the
  // shared chrome writer land in an open document, and before the metric
  // probes. The caller keeps it to query the DAG after the run.
  CausalTraceProbe* causal = nullptr;
  // Snapshot the executor's scheduler self-metrics (ExecutorStats) into the
  // registry at run end. Off by default so runs that pin exact registry
  // contents are unaffected.
  bool exec_stats = false;
  // Caller-owned online invariant checker (analysis/trace_check.hpp).
  // attach() wires it after the causal probe; the caller keeps it to read
  // the diagnostic report after the run.
  InvariantProbe* lint = nullptr;
  // Caller-owned certificate checker (analysis/bounds.hpp). attach() first
  // harvests bound certificates from the executor's composition, then wires
  // the probe right after the invariant checker; observed message latencies
  // outside a derived per-edge window raise PSC206 even when the declared
  // PSC102 envelope holds. The caller keeps it to read the report after the
  // run.
  CertificateProbe* cert = nullptr;
  // Enable the bound-slack observatory (obs/observatory.hpp): the harness
  // calls add_slack() with the model parameters of the assembly it builds,
  // which is a no-op unless this is set. Off by default so runs that pin
  // exact registry contents are unaffected.
  bool slack = false;
  // Caller-owned windowed time-series sink, sampled on its configured
  // simulated-time cadence by a probe attach() creates (after every metric
  // probe, so each boundary snapshot sees that instant's final state). The
  // caller keeps it to export or inspect the windows after the run.
  TimeSeries* timeseries = nullptr;
  // Caller-owned binary flight recorder (obs/flight.hpp). attach() hands it
  // to Executor::attach_flight — not a Probe: the executor writes its ring
  // directly from the record path. The caller keeps it to snapshot/dump
  // after the run.
  FlightRecorder* flight = nullptr;
  // Caller-owned sampling microprofiler (obs/prof.hpp). attach() hands it
  // to Executor::attach_profiler — like the flight recorder, not a Probe:
  // the scheduler loop brackets its own phases. With a chrome writer also
  // configured, attach() additionally streams per-phase counter tracks
  // into the trace. The caller keeps it to report()/export_metrics() after
  // the run.
  Profiler* profile = nullptr;

  bool enabled() const {
    return registry != nullptr || chrome_out != nullptr || causal != nullptr ||
           lint != nullptr || cert != nullptr || timeseries != nullptr ||
           flight != nullptr || profile != nullptr;
  }
};

class RunObserver {
 public:
  // `opts` may be null or empty: every add_* becomes a no-op returning
  // nullptr and attach() attaches nothing — callers need no branching.
  explicit RunObserver(const ObsOptions* opts);
  ~RunObserver();

  RunObserver(const RunObserver&) = delete;
  RunObserver& operator=(const RunObserver&) = delete;

  bool active() const { return opts_.enabled(); }
  MetricsRegistry* registry() { return opts_.registry; }
  // The shared chrome writer (null when no chrome_out was configured).
  ChromeTraceWriter* chrome();

  ClockSkewProbe* add_clock_skew(
      std::vector<std::shared_ptr<const ClockTrajectory>> trajs,
      Duration eps);
  ChannelLatencyProbe* add_channel_latency(Duration d1, Duration d2);
  Sim1BufferProbe* add_buffers();
  MmtProbe* add_mmt();
  // Bound-slack observatory; no-op (nullptr) unless options.slack is set
  // and a registry sink exists. The harness passes the model parameters of
  // the assembly it actually built.
  BoundSlackProbe* add_slack(const SlackOptions& slack_opts);
  // The slack probe constructed by add_slack (nullptr when none) — read
  // min-slack summaries from it after the run.
  const BoundSlackProbe* slack() const { return slack_probe_; }
  // Attaches every probe to the executor: event-trace probe first (so
  // later probes may stream into an open document), then the caller's
  // causal probe and checkers, then the constructed metric probes.
  void attach(Executor& exec);

 private:
  // The registry metric probes write into: the configured one, or a private
  // scratch registry for chrome-only runs (counter tracks still need
  // somewhere to keep their gauges).
  MetricsRegistry* sink();

  ObsOptions opts_;
  std::unique_ptr<ChromeTraceProbe> chrome_probe_;   // when chrome_out
  std::unique_ptr<MetricsRegistry> scratch_;
  std::unique_ptr<TimeSeriesProbe> ts_probe_;        // when opts_.timeseries
  BoundSlackProbe* slack_probe_ = nullptr;           // owned via probes_
  std::vector<std::unique_ptr<Probe>> probes_;
};

}  // namespace psc
