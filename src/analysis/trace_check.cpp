#include "analysis/trace_check.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace psc {

TraceChecker::TraceChecker(TraceCheckOptions opts)
    : opts_(std::move(opts)), meter_(opts_.ell >= 0) {
  if (opts_.num_nodes > 0 && opts_.eps >= 0) {
    order_band_ = opts_.eps + (opts_.ell > 0 ? opts_.ell : 0) + opts_.slack;
    node_order_.resize(static_cast<std::size_t>(opts_.num_nodes));
  }
}

void TraceChecker::emit(DiagCode code, std::string message,
                        std::string machine, Time time) {
  if (opts_.on_violation && default_severity(code) == Severity::kError) {
    opts_.on_violation(
        Diagnostic{code, Severity::kError, message, machine, time});
  }
  report_.add(code, std::move(message), std::move(machine), time);
}

void TraceChecker::observe(const TimedEvent& e) {
  const Measurement& m = meter_.measure(e);
  // PSC101: recorded clock readings stay within the C_eps band (plus ell
  // under MMT, where the node's clock is the last *ticked* value and may
  // lag by one tick interval on top of the drift).
  if (opts_.eps >= 0 && m.skew.has_value()) {
    const BoundWindow w = ceps_window(opts_.eps, opts_.ell);
    if (!w.contains(*m.skew, opts_.slack)) {
      std::ostringstream msg;
      msg << "clock reads " << format_time(e.clock) << " at real time "
          << format_time(e.time) << " (skew "
          << format_time(std::llabs(*m.skew)) << " > band "
          << format_time(w.hi + opts_.slack) << ")";
      emit(DiagCode::kClockDrift, msg.str(), e.action.name.str(), e.time);
    }
  }
  if (m.delivery.leg != Delivery::Leg::kNone) check_delivery(e, m.delivery);
  if (opts_.ell >= 0 && (m.tick_gap || m.step_gap)) check_gaps(e, m);
  if (!node_order_.empty() && e.clock != kNoClockTag) check_order(e);
}

void TraceChecker::check_delivery(const TimedEvent& e, const Delivery& d) {
  const ActionName name = e.action.name;
  switch (d.leg) {
    case Delivery::Leg::kUnmatched:
      emit(DiagCode::kUnknownDelivery,
           name.str() + " of uid " + std::to_string(d.uid) +
               (name.msg_class() == MsgClass::kERecv
                    ? " with no matching ESENDMSG"
                    : " with no matching send"),
           name.str(), e.time);
      return;
    case Delivery::Leg::kTimed:
    case Delivery::Leg::kPhysical: {
      // PSC102: the physical channel (SENDMSG->RECVMSG in the timed model,
      // ESENDMSG->ERECVMSG under Simulation 1) delivers within [d1, d2].
      if (opts_.d2 < 0) return;
      const BoundWindow w = delivery_window(opts_.d1, opts_.d2);
      if (!w.contains(d.latency)) {
        std::ostringstream msg;
        msg << "uid " << d.uid << " delivered after "
            << format_time(d.latency) << ", outside [" << format_time(w.lo)
            << ", " << format_time(w.hi) << "]";
        emit(DiagCode::kDeliveryWindow, msg.str(), name.str(), e.time);
      }
      return;
    }
    case Delivery::Leg::kRelease: {
      // PSC103: Lamport's condition — never deliver before the local clock
      // reaches the clock value at which the message was sent.
      if (d.latency < -opts_.slack) {
        std::ostringstream msg;
        msg << "uid " << d.uid << " released at receiver clock "
            << format_time(e.clock) << " before its send tag "
            << format_time(d.tag);
        emit(DiagCode::kEarlyRelease, msg.str(), name.str(), e.time);
      }
      // PSC104: Theorem 4.7 — in the simulated timed execution, clock-time
      // delivery latency lies in [max(d1 - 2eps, 0), d2 + 2eps].
      if (opts_.d2 < 0 || opts_.eps < 0) return;
      const BoundWindow w = thm47_window(opts_.d1, opts_.d2, opts_.eps);
      if (!w.contains(d.latency, opts_.slack)) {
        std::ostringstream msg;
        msg << "uid " << d.uid << " clock-time latency "
            << format_time(d.latency) << " outside [" << format_time(w.lo)
            << ", " << format_time(w.hi) << "]";
        emit(DiagCode::kWidenedWindow, msg.str(), name.str(), e.time);
      }
      return;
    }
    case Delivery::Leg::kNone:
      return;
  }
}

void TraceChecker::check_gaps(const TimedEvent& e, const Measurement& m) {
  const BoundWindow w = mmt_window(opts_.ell);
  // PSC105 half 1: the clock subsystem C^m fires a TICK at least every ell
  // (its single task class has boundmap [0, ell], enabled from time 0).
  if (m.tick_gap.has_value() && !w.contains(*m.tick_gap, opts_.slack)) {
    std::ostringstream msg;
    msg << "node " << e.action.node << " tick gap "
        << format_time(*m.tick_gap) << " > ell " << format_time(opts_.ell);
    emit(DiagCode::kBoundmapOverrun, msg.str(), "TICK", e.time);
  }
  // PSC105 half 2: an MMT node (recognized by its MMTSTEP taus) performs a
  // step — output or tau — at least every ell.
  if (m.step_gap.has_value() && !w.contains(*m.step_gap, opts_.slack)) {
    std::ostringstream msg;
    msg << "MMT node (owner " << e.owner << ") step gap "
        << format_time(*m.step_gap) << " > ell " << format_time(opts_.ell);
    emit(DiagCode::kBoundmapOverrun, msg.str(), e.action.name.str(), e.time);
  }
}

void TraceChecker::check_order(const TimedEvent& e) {
  const int node = e.action.node;
  if (node < 0 || node >= opts_.num_nodes) {
    auto& [times, clocks] = unclassed_[to_string(e.action)];
    times.push_back(e.time);
    clocks.push_back(e.clock);
    return;
  }
  NodeOrder& s = node_order_[static_cast<std::size_t>(node)];
  if (s.failure.empty() && e.clock < s.last_clock) {
    std::ostringstream msg;
    msg << "node " << node << " clock decreases from "
        << format_time(s.last_clock) << " to " << format_time(e.clock)
        << " at " << to_string(e.action) << " @" << format_time(e.time);
    s.failure = msg.str();
  } else if (s.failure.empty() &&
             std::llabs(e.time - e.clock) > order_band_) {
    // eq_within's wording for the same positional failure.
    std::ostringstream msg;
    msg << "class time perturbation > eps: " << to_string(e.action) << " @"
        << format_time(e.time) << " vs " << to_string(e.action) << " @"
        << format_time(e.clock);
    s.failure = msg.str();
  }
  s.last_clock = e.clock;
}

void TraceChecker::finalize() {
  if (finalized_) return;
  finalized_ = true;
  // PSC106: the clock retiming gamma'_alpha (Def 4.2) — replace each
  // clocked event's time by its clock reading and re-sort — must be
  // =band,kappa-related to the original for kappa = one class per node:
  // every event moves by at most the drift band and per-node order is
  // preserved (P_eps, Section 4.3). Report the first failure in
  // eq_within's order: the lowest failing node, then the unclassed events.
  std::string why;
  for (const NodeOrder& s : node_order_) {
    if (!s.failure.empty()) {
      why = s.failure;
      break;
    }
  }
  // Unclassed events are only bound by action identity and the band, so
  // each identity's sorted real times are matched to its sorted clocks.
  for (auto it = unclassed_.begin(); why.empty() && it != unclassed_.end();
       ++it) {
    auto& [times, clocks] = it->second;
    std::sort(times.begin(), times.end());
    std::sort(clocks.begin(), clocks.end());
    for (std::size_t j = 0; j < times.size(); ++j) {
      if (std::llabs(times[j] - clocks[j]) > order_band_) {
        why = "time perturbation > eps for " + it->first;
        break;
      }
    }
  }
  if (!why.empty()) {
    emit(DiagCode::kOrderViolation,
         "trace is not =eps,kappa-related to its clock retiming: " + why);
  }
}

DiagnosticReport check_trace(const TimedTrace& trace,
                             const TraceCheckOptions& opts) {
  TraceChecker checker(opts);
  for (const TimedEvent& e : trace) checker.observe(e);
  checker.finalize();
  return checker.report();
}

}  // namespace psc
