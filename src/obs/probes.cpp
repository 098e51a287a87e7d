#include "obs/probes.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "core/action.hpp"
#include "core/msg_class.hpp"
#include "mmt/mmt_node.hpp"
#include "obs/trace_export.hpp"
#include "runtime/executor.hpp"
#include "transform/buffers.hpp"

namespace psc {

std::vector<double> duration_bounds() {
  return Histogram::exponential_bounds(100.0, 2.0, 24);
}

// --- ClockSkewProbe --------------------------------------------------------

ClockSkewProbe::ClockSkewProbe(
    MetricsRegistry& reg,
    std::vector<std::shared_ptr<const ClockTrajectory>> trajs, Duration eps,
    ChromeTraceWriter* trace)
    : trajs_(std::move(trajs)), eps_(eps), trace_(trace) {
  // Bounds extend past eps so violations land in real buckets, not just
  // the overflow bucket.
  const double hi = eps > 0 ? static_cast<double>(eps) * 1.25 : 1.0;
  abs_hist_ = &reg.histogram("clock.skew_ns",
                             Histogram::linear_bounds(0.0, hi, 25));
  violations_ = &reg.counter("clock.skew_violations");
  reg.gauge("clock.eps_ns").set(static_cast<double>(eps));
  node_skew_.reserve(trajs_.size());
  for (std::size_t i = 0; i < trajs_.size(); ++i) {
    node_skew_.push_back(
        &reg.gauge("clock.skew_ns.node" + std::to_string(i)));
  }
}

void ClockSkewProbe::sample(int node, Time now, Time clock) {
  const Duration skew = clock - now;
  const Duration abs = skew < 0 ? -skew : skew;
  if (node >= 0 && static_cast<std::size_t>(node) < node_skew_.size()) {
    node_skew_[static_cast<std::size_t>(node)]->set(
        static_cast<double>(skew));
  }
  abs_hist_->add(static_cast<double>(abs));
  max_abs_skew_ = std::max(max_abs_skew_, abs);
  if (abs > eps_) violations_->add();
  if (trace_ && node >= 0) {
    trace_->counter("clock skew (ns)", "node" + std::to_string(node), now,
                    static_cast<double>(skew));
  }
}

void ClockSkewProbe::on_time_advance(Time /*from*/, Time to) {
  for (std::size_t i = 0; i < trajs_.size(); ++i) {
    sample(static_cast<int>(i), to, trajs_[i]->clock_at(to));
  }
}

void ClockSkewProbe::on_event(const TimedEvent& e, const Machine& /*owner*/) {
  if (e.clock == kNoClockTag) return;
  // Event-attached clock readings re-check the band at the exact instants
  // actions fired (between time advances nothing changes, but the owner's
  // clock at an event may belong to a node the advance-time sweep indexes
  // differently — use the action's node when it has one).
  sample(e.action.node, e.time, e.clock);
}

// --- ChannelLatencyProbe ---------------------------------------------------

ChannelLatencyProbe::ChannelLatencyProbe(MetricsRegistry& reg, Duration d1,
                                         Duration d2)
    : MeteredProbe(/*mmt_gaps=*/false), d1_(d1), d2_(d2) {
  const double lo = static_cast<double>(d1);
  const double hi = static_cast<double>(std::max(d2, d1 + 1));
  latency_ = &reg.histogram("channel.latency_ns",
                            Histogram::linear_bounds(lo, hi, 20));
  delivered_ = &reg.counter("channel.delivered");
  violations_ = &reg.counter("channel.latency_violations");
  reg.gauge("channel.d1_ns").set(lo);
  reg.gauge("channel.d2_ns").set(static_cast<double>(d2));
}

void ChannelLatencyProbe::on_measured(const TimedEvent& /*e*/,
                                      const Measurement& m,
                                      const Machine& /*owner*/) {
  // Only the channel's own delivery is bound by [d1, d2]; the Simulation 1
  // release (receive buffer -> algorithm RECVMSG) is the meter's kRelease
  // leg and may be held longer.
  const Delivery& d = m.delivery;
  if (d.leg != Delivery::Leg::kTimed && d.leg != Delivery::Leg::kPhysical) {
    return;
  }
  latency_->add(static_cast<double>(d.latency));
  delivered_->add();
  if (d.latency < d1_ || d.latency > d2_) violations_->add();
}

// --- Sim1BufferProbe -------------------------------------------------------

Sim1BufferProbe::Sim1BufferProbe(MetricsRegistry& reg,
                                 ChromeTraceWriter* trace)
    : trace_(trace), reg_(reg) {
  recv_occupancy_ = &reg.gauge("sim1.recv.occupancy");
  send_occupancy_ = &reg.gauge("sim1.send.occupancy");
  hold_ = &reg.histogram("sim1.recv.hold_ns", duration_bounds());
}

void Sim1BufferProbe::watch(const ReceiveBuffer* rb) { recv_.push_back(rb); }
void Sim1BufferProbe::watch(const SendBuffer* sb) { send_.push_back(sb); }

void Sim1BufferProbe::sample_occupancy(Time t) {
  std::int64_t r = 0;
  for (const ReceiveBuffer* rb : recv_) {
    r += static_cast<std::int64_t>(rb->queued());
  }
  if (r != last_recv_occ_) {
    last_recv_occ_ = r;
    recv_occupancy_->set(static_cast<double>(r));
    if (trace_) {
      trace_->counter("recv buffer occupancy", "messages", t,
                      static_cast<double>(r));
    }
  }
  std::int64_t s = 0;
  for (const SendBuffer* sb : send_) {
    s += static_cast<std::int64_t>(sb->queued());
  }
  if (s != last_send_occ_) {
    last_send_occ_ = s;
    send_occupancy_->set(static_cast<double>(s));
  }
}

void Sim1BufferProbe::on_event(const TimedEvent& e, const Machine& /*owner*/) {
  if (!recv_.empty() || !send_.empty()) sample_occupancy(e.time);
  if (!e.action.msg.has_value()) return;
  // ERECVMSG: the channel handed (m, c) to the node; the receive buffer may
  // hold it until the local clock reaches c. RECVMSG with the same uid is
  // the release to the algorithm; the difference is the real-time hold.
  const MsgClass cls = e.action.name.msg_class();
  if (cls == MsgClass::kERecv) {
    Arrival& a = arrived_[e.action.msg->uid];
    if (a.t < 0) a.t = e.time;
  } else if (cls == MsgClass::kRecv) {
    Arrival* a = arrived_.find(e.action.msg->uid);
    if (a == nullptr || a->t < 0) return;
    hold_->add(static_cast<double>(e.time - a->t));
    a->t = -1;
  }
}

void Sim1BufferProbe::on_run_end(Time /*now*/) {
  ReceiveBufferStats total;
  for (const ReceiveBuffer* rb : recv_) {
    const ReceiveBufferStats& s = rb->stats();
    total.received += s.received;
    total.buffered += s.buffered;
    total.total_hold += s.total_hold;
    total.max_hold = std::max(total.max_hold, s.max_hold);
  }
  reg_.counter("sim1.recv.received").add(total.received);
  reg_.counter("sim1.recv.buffered").add(total.buffered);
  reg_.counter("sim1.recv.hold_total_clock_ns")
      .add(static_cast<std::uint64_t>(std::max<Duration>(total.total_hold, 0)));
  reg_.gauge("sim1.recv.max_hold_clock_ns")
      .set(static_cast<double>(total.max_hold));
}

// --- MmtProbe --------------------------------------------------------------

MmtProbe::MmtProbe(MetricsRegistry& reg) : reg_(reg) {
  tick_to_action_ =
      &reg.histogram("mmt.tick_to_action_ns", duration_bounds());
  ticks_ = &reg.counter("mmt.ticks");
}

void MmtProbe::watch(const MmtNode* node) { nodes_.push_back(node); }

void MmtProbe::on_event(const TimedEvent& e, const Machine& owner) {
  const int node = e.action.node;
  if (e.action.name.msg_class() == MsgClass::kTick) {
    if (node >= 0) {
      const auto i = static_cast<std::size_t>(node);
      if (i >= last_tick_.size()) last_tick_.resize(i + 1, Time{-1});
      last_tick_[i] = e.time;
    }
    ticks_->add();
    return;
  }
  if (node < 0 || static_cast<std::size_t>(node) >= last_tick_.size()) return;
  if (dynamic_cast<const MmtNode*>(&owner) == nullptr) return;
  const Time last = last_tick_[static_cast<std::size_t>(node)];
  if (last < 0) return;
  tick_to_action_->add(static_cast<double>(e.time - last));
}

void MmtProbe::on_run_end(Time /*now*/) {
  std::uint64_t steps = 0, outputs = 0;
  std::size_t max_pending = 0;
  Duration max_emit_delay = 0;
  for (const MmtNode* n : nodes_) {
    const MmtNodeStats& s = n->stats();
    steps += s.steps;
    outputs += s.outputs;
    max_pending = std::max(max_pending, s.max_pending);
    max_emit_delay = std::max(max_emit_delay, s.max_emit_delay);
  }
  if (nodes_.empty()) return;
  reg_.counter("mmt.steps").add(steps);
  reg_.counter("mmt.outputs").add(outputs);
  reg_.gauge("mmt.max_pending").set(static_cast<double>(max_pending));
  reg_.gauge("mmt.max_emit_delay_ns")
      .set(static_cast<double>(max_emit_delay));
}

// --- SchedulerStatsProbe ---------------------------------------------------

SchedulerStatsProbe::SchedulerStatsProbe(MetricsRegistry& reg,
                                         const Executor& exec)
    : reg_(reg), exec_(exec) {}

void SchedulerStatsProbe::on_run_end(Time /*now*/) {
  const ExecutorStats& s = exec_.stats();
  reg_.counter("exec.events").add(s.events);
  reg_.counter("exec.time_advances").add(s.time_advances);
  reg_.counter("exec.wheel.inserts").add(s.wheel.inserts);
  reg_.counter("exec.wheel.due").add(s.wheel.due);
  reg_.counter("exec.wheel.cascades").add(s.wheel.cascades);
  reg_.counter("exec.dirty.flushes").add(s.dirty_flushes);
  reg_.counter("exec.dirty.repolls").add(s.dirty_repolls);
  reg_.gauge("exec.dirty.peak").set(static_cast<double>(s.dirty_peak));
  reg_.counter("exec.cand.cache_hits").add(s.cand_cache_hits);
  reg_.gauge("exec.cand.cache_hit_rate").set(s.cache_hit_rate());
  reg_.counter("exec.route.fanout_inputs").add(s.fanout_inputs);
  reg_.counter("exec.kind.hits").add(s.kind_hits);
  reg_.counter("exec.kind.resolves").add(s.kind_resolves);
  reg_.counter("exec.kind.memo_hits").add(s.kind_memo_hits);
  reg_.gauge("exec.kind.interned").set(
      static_cast<double>(exec_.interned_kind_count()));
}

}  // namespace psc
