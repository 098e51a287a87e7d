// Built-in probes: measure the paper's quantitative claims during a run.
//
//   ClockSkewProbe      |c_i(t) - t| per node vs. the configured eps — the
//                       C_eps predicate (Def 2.5) as a live gauge.
//   ChannelLatencyProbe per-message channel delay vs. [d1, d2] — the edge
//                       automaton's delivery window (Figure 1). A delivery
//                       is the window meter's (analysis/meter.hpp) kTimed
//                       SENDMSG -> RECVMSG or kPhysical ESENDMSG -> ERECVMSG
//                       leg, matched by message uid (Section 3's uniqueness
//                       assumption) — the same legs PSC102 and
//                       slack.delivery_ns evaluate, so the probe is correct
//                       in the timed, clock, and MMT assemblies alike.
//   Sim1BufferProbe     Simulation 1's cost: receive/send-buffer occupancy
//                       over time plus per-message hold time (ERECVMSG ->
//                       RECVMSG), the quantity Section 7.2 argues is small.
//   MmtProbe            tick-to-action latency and per-node step/queue
//                       stats of the MMT transformation (Definition 5.1).
//   SchedulerStatsProbe end-of-run snapshot of the executor's ExecutorStats
//                       self-metrics (wake calendar, dirty set, routing)
//                       into the registry, so scheduler behaviour lands in
//                       the same metrics document as the model quantities.
//
// Every probe writes into a MetricsRegistry; probes given a
// ChromeTraceWriter additionally stream counter tracks into the trace so
// the quantities render as line charts under the event timeline.
#pragma once

#include <memory>
#include <vector>

#include "analysis/meter.hpp"
#include "analysis/uid_index.hpp"
#include "clock/trajectory.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"

namespace psc {

class ReceiveBuffer;
class SendBuffer;
class MmtNode;
class ChromeTraceWriter;
class Executor;

class ClockSkewProbe final : public Probe {
 public:
  // One trajectory per node; eps is the C_eps band every clock must stay
  // inside. Skew is sampled at every time-passage step (and from every
  // clock-tagged event), so the gauge covers exactly the instants at which
  // the composition can act.
  ClockSkewProbe(MetricsRegistry& reg,
                 std::vector<std::shared_ptr<const ClockTrajectory>> trajs,
                 Duration eps, ChromeTraceWriter* trace = nullptr);

  void on_time_advance(Time from, Time to) override;
  void on_event(const TimedEvent& e, const Machine& owner) override;

  Duration max_abs_skew() const { return max_abs_skew_; }
  std::uint64_t violations() const { return violations_->value(); }

 private:
  void sample(int node, Time now, Time clock);

  std::vector<std::shared_ptr<const ClockTrajectory>> trajs_;
  Duration eps_;
  ChromeTraceWriter* trace_;
  std::vector<Gauge*> node_skew_;  // signed skew, one gauge per node
  Histogram* abs_hist_;            // |skew| distribution, all nodes
  Counter* violations_;            // samples with |skew| > eps
  Duration max_abs_skew_ = 0;
};

class ChannelLatencyProbe final : public Probe {
 public:
  // [d1, d2] are the *physical* bounds of the channels in the composition
  // (what Channel was constructed with), not the algorithm's design bounds.
  ChannelLatencyProbe(MetricsRegistry& reg, Duration d1, Duration d2);

  void on_event(const TimedEvent& e, const Machine& owner) override;

  std::uint64_t delivered() const { return delivered_->value(); }
  std::uint64_t violations() const { return violations_->value(); }

 private:
  Duration d1_, d2_;
  WindowMeter meter_{/*mmt_gaps=*/false};
  Histogram* latency_;
  Counter* delivered_;
  Counter* violations_;
};

class Sim1BufferProbe final : public Probe {
 public:
  explicit Sim1BufferProbe(MetricsRegistry& reg,
                           ChromeTraceWriter* trace = nullptr);

  // Register the buffers of the assembled system (non-owning; they must
  // outlive the run). Hold times are derived from the event stream, so the
  // probe works even with no buffers registered — occupancy and the
  // end-of-run ReceiveBufferStats aggregation then stay empty.
  void watch(const ReceiveBuffer* rb);
  void watch(const SendBuffer* sb);

  void on_event(const TimedEvent& e, const Machine& owner) override;
  void on_run_end(Time now) override;

 private:
  void sample_occupancy(Time t);

  struct Arrival {
    Time t = -1;  // ERECVMSG time; -1 while none is pending
  };

  std::vector<const ReceiveBuffer*> recv_;
  std::vector<const SendBuffer*> send_;
  ChromeTraceWriter* trace_;
  MetricsRegistry& reg_;
  Gauge* recv_occupancy_;
  Gauge* send_occupancy_;
  Histogram* hold_;  // per-message ERECVMSG -> RECVMSG hold time (real ns)
  UidIndex<Arrival> arrived_;  // uid -> pending ERECVMSG
  std::int64_t last_recv_occ_ = -1;
  std::int64_t last_send_occ_ = -1;
};

class MmtProbe final : public Probe {
 public:
  explicit MmtProbe(MetricsRegistry& reg);

  // Register nodes for end-of-run MmtNodeStats aggregation.
  void watch(const MmtNode* node);

  void on_event(const TimedEvent& e, const Machine& owner) override;
  void on_run_end(Time now) override;

 private:
  MetricsRegistry& reg_;
  std::vector<const MmtNode*> nodes_;
  std::vector<Time> last_tick_;  // node -> last TICK time (-1 none)
  Histogram* tick_to_action_;
  Counter* ticks_;
};

class SchedulerStatsProbe final : public Probe {
 public:
  // Snapshots `exec.stats()` into the registry at run end. Non-owning; the
  // executor must outlive the run (it does — it drives it).
  SchedulerStatsProbe(MetricsRegistry& reg, const Executor& exec);

  void on_run_end(Time now) override;

 private:
  MetricsRegistry& reg_;
  const Executor& exec_;
};

// Default duration-histogram bounds: exponential from 100ns to ~1.7s.
std::vector<double> duration_bounds();

}  // namespace psc
