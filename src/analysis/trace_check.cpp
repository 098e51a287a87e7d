#include "analysis/trace_check.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "analysis/windows.hpp"

namespace psc {

namespace {

// v[i], growing v with default-constructed slots when i is past its end.
template <typename T>
T& grown_at(std::vector<T>& v, std::size_t i) {
  if (i >= v.size()) v.resize(i + 1);
  return v[i];
}

}  // namespace

TraceChecker::TraceChecker(TraceCheckOptions opts) : opts_(std::move(opts)) {
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
  // PSC101: recorded clock readings stay within the C_eps band (plus ell
  // under MMT, where the node's clock is the last *ticked* value and may
  // lag by one tick interval on top of the drift).
  if (opts_.eps >= 0 && e.clock != kNoClockTag) {
    const BoundWindow w = ceps_window(opts_.eps, opts_.ell);
    if (!w.contains(e.clock - e.time, opts_.slack)) {
      const Duration skew =
          e.clock > e.time ? e.clock - e.time : e.time - e.clock;
      std::ostringstream msg;
      msg << "clock reads " << format_time(e.clock) << " at real time "
          << format_time(e.time) << " (skew " << format_time(skew)
          << " > band " << format_time(w.hi + opts_.slack) << ")";
      emit(DiagCode::kClockDrift, msg.str(), e.action.name, e.time);
    }
  }

  const NameClass nc = name_class(e);
  check_channel(e, nc);
  if (opts_.ell >= 0) check_mmt(e, nc);

  if (!node_order_.empty() && e.clock != kNoClockTag) check_order(e);
}

TraceChecker::NameClass TraceChecker::classify_name(const std::string& nm) {
  // Dispatch on (length, lead byte) before any full string comparison:
  // for events without an interned kind this runs per event, and several
  // string equalities per event are measurable against the online probe's
  // <5% ns/event overhead budget (bench_executor's PSC_LINT arm).
  if (nm.size() == 7) {
    if (nm[0] == 'S' && nm == "SENDMSG") return NameClass::kSend;
    if (nm[0] == 'R' && nm == "RECVMSG") return NameClass::kRecv;
    if (nm[0] == 'M' && nm == "MMTSTEP") return NameClass::kMmtStep;
    return NameClass::kOther;
  }
  if (nm.size() == 8 && nm[0] == 'E') {
    if (nm[1] == 'S' && nm == "ESENDMSG") return NameClass::kESend;
    if (nm[1] == 'R' && nm == "ERECVMSG") return NameClass::kERecv;
    return NameClass::kOther;
  }
  if (nm.size() == 4 && nm[0] == 'T' && nm == "TICK") return NameClass::kTick;
  return NameClass::kOther;
}

TraceChecker::NameClass TraceChecker::name_class(const TimedEvent& e) {
  if (e.kind < 0) return classify_name(e.action.name);
  const std::size_t kid = static_cast<std::size_t>(e.kind);
  if (kid >= kind_class_.size()) {
    kind_class_.resize(kid + 1, NameClass::kUnknown);
  }
  NameClass& memo = kind_class_[kid];
  if (memo == NameClass::kUnknown) memo = classify_name(e.action.name);
  return memo;
}

void TraceChecker::check_channel(const TimedEvent& e, NameClass nc) {
  const auto& a = e.action;
  if (!a.msg.has_value()) return;
  const std::uint64_t uid = a.msg->uid;

  switch (nc) {
    case NameClass::kSend:
      msgs_[uid].send_time = e.time;
      return;
    case NameClass::kRecv:
      check_recv(e, uid);
      return;
    case NameClass::kESend: {
      MsgRecord& r = msgs_[uid];
      r.esend_time = e.time;
      if (a.msg->clock_tag != kNoClockTag) r.tag = a.msg->clock_tag;
      return;
    }
    case NameClass::kERecv: {
      MsgRecord* r = msgs_.find(uid);
      if (r == nullptr || r->esend_time < 0) {
        emit(DiagCode::kUnknownDelivery,
                    "ERECVMSG of uid " + std::to_string(uid) +
                        " with no matching ESENDMSG",
                    a.name, e.time);
        return;
      }
      // The tag travels with the message; remember it here too, because the
      // receive buffer strips it before the RECVMSG release.
      if (a.msg->clock_tag != kNoClockTag) r->tag = a.msg->clock_tag;
      // PSC102 (Simulation 1): the physical channel carries (m, c) within
      // [d1, d2] of real time.
      if (opts_.d2 >= 0) {
        const BoundWindow w = delivery_window(opts_.d1, opts_.d2);
        const Duration lat = e.time - r->esend_time;
        if (!w.contains(lat)) {
          std::ostringstream msg;
          msg << "uid " << uid << " delivered after " << format_time(lat)
              << ", outside [" << format_time(w.lo) << ", "
              << format_time(w.hi) << "]";
          emit(DiagCode::kDeliveryWindow, msg.str(), a.name, e.time);
        }
      }
      return;
    }
    default:
      return;
  }
}

void TraceChecker::check_recv(const TimedEvent& e, std::uint64_t uid) {
  const auto& a = e.action;
  const MsgRecord* rec = msgs_.find(uid);
  if (rec == nullptr || (rec->send_time < 0 && rec->esend_time < 0)) {
    emit(DiagCode::kUnknownDelivery,
                "RECVMSG of uid " + std::to_string(uid) +
                    " with no matching send",
                a.name, e.time);
    return;
  }
  const MsgRecord& r = *rec;
  if (r.esend_time < 0) {
    // Timed model: RECVMSG is the physical delivery — check [d1, d2].
    if (opts_.d2 >= 0 && r.send_time >= 0) {
      const BoundWindow w = delivery_window(opts_.d1, opts_.d2);
      const Duration lat = e.time - r.send_time;
      if (!w.contains(lat)) {
        std::ostringstream msg;
        msg << "uid " << uid << " delivered after " << format_time(lat)
            << ", outside [" << format_time(w.lo) << ", " << format_time(w.hi)
            << "]";
        emit(DiagCode::kDeliveryWindow, msg.str(), a.name, e.time);
      }
    }
    return;
  }
  // Simulation 1: RECVMSG is the buffer release. The receiver's clock at
  // release is the event's clock reading; the sender's clock is the tag.
  if (r.tag != kNoClockTag && e.clock != kNoClockTag) {
    // PSC103: Lamport's condition — never deliver before the local clock
    // reaches the clock value at which the message was sent.
    if (e.clock + opts_.slack < r.tag) {
      std::ostringstream msg;
      msg << "uid " << uid << " released at receiver clock "
          << format_time(e.clock) << " before its send tag "
          << format_time(r.tag);
      emit(DiagCode::kEarlyRelease, msg.str(), a.name, e.time);
    }
    // PSC104: Theorem 4.7 — in the simulated timed execution, clock-time
    // delivery latency lies in [max(d1 - 2eps, 0), d2 + 2eps].
    if (opts_.d2 >= 0 && opts_.eps >= 0) {
      const BoundWindow w = thm47_window(opts_.d1, opts_.d2, opts_.eps);
      const Duration lat = e.clock - r.tag;
      if (!w.contains(lat, opts_.slack)) {
        std::ostringstream msg;
        msg << "uid " << uid << " clock-time latency " << format_time(lat)
            << " outside [" << format_time(w.lo) << ", " << format_time(w.hi)
            << "]";
        emit(DiagCode::kWidenedWindow, msg.str(), a.name, e.time);
      }
    }
  }
}

void TraceChecker::check_mmt(const TimedEvent& e, NameClass nc) {
  // PSC105 half 1: the clock subsystem C^m fires a TICK at least every ell
  // (its single task class has boundmap [0, ell], enabled from time 0).
  if (nc == NameClass::kTick && e.action.node >= 0) {  // not kNoNode
    Time& prev = grown_at(last_tick_, static_cast<std::size_t>(e.action.node));
    if (!mmt_window(opts_.ell).contains(e.time - prev, opts_.slack)) {
      std::ostringstream msg;
      msg << "node " << e.action.node << " tick gap "
          << format_time(e.time - prev) << " > ell "
          << format_time(opts_.ell);
      emit(DiagCode::kBoundmapOverrun, msg.str(), "TICK", e.time);
    }
    prev = e.time;
  }
  // PSC105 half 2: an MMT node (recognized by its MMTSTEP taus) performs a
  // step — output or tau — at least every ell. Gaps are measured between
  // consecutive locally controlled events of the same owner; the trailing
  // gap to the run's end is exempt (the run may stop mid-budget).
  if (e.owner >= 0) {
    OwnerSteps& s = grown_at(owner_steps_, static_cast<std::size_t>(e.owner));
    if (nc == NameClass::kMmtStep) s.mmt = true;
    if (s.mmt &&
        !mmt_window(opts_.ell).contains(e.time - s.last, opts_.slack)) {
      std::ostringstream msg;
      msg << "MMT node (owner " << e.owner << ") step gap "
          << format_time(e.time - s.last) << " > ell "
          << format_time(opts_.ell);
      emit(DiagCode::kBoundmapOverrun, msg.str(), e.action.name, e.time);
    }
    s.last = e.time;
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
