// Layer 2 of the model-conformance analyzer: the trace invariant checker.
//
// Replays an execution's TimedEvent stream — live, as an executor Probe, or
// offline from a trace file — against the paper's quantitative predicates:
//
//   PSC101  C_eps (Def 2.5): every recorded clock reading stays within
//           eps of real time (widened by ell in the MMT model, where
//           MmtNode reports the last *ticked* clock value);
//   PSC102  the physical channel contract (Figure 1): each message is
//           delivered within [d1, d2] of real time after its send
//           (SENDMSG->RECVMSG in the timed model, ESENDMSG->ERECVMSG under
//           Simulation 1 — detected per message uid);
//   PSC103  Simulation 1's buffer-release rule (Figure 2): no RECVMSG at a
//           receiver clock earlier than the sender's clock tag;
//   PSC104  Theorem 4.7's translated window: clock-time delivery latency
//           (receiver clock at RECVMSG minus the sender's tag) within
//           [max(d1-2eps,0), d2+2eps];
//   PSC105  the MMT boundmap [0, ell] (Def 5.1 / Section 5.2): consecutive
//           TICKs per node, and consecutive locally controlled events of a
//           recognized MMT node, at most ell apart;
//   PSC106  per-node order preservation: the trace and its clock-retimed
//           reordering (gamma'_alpha, Def 4.2) are =band,kappa-related for
//           kappa = one class per node (Def 2.8). Checked online: a node's
//           clocked events must carry nondecreasing clock readings, each
//           within the band of its real time, so the state is O(num_nodes)
//           plus the (time, clock) pairs of clocked events outside every
//           node's class;
//   PSC107  a delivery event whose message uid was never seen sent (warn —
//           usually a truncated trace).
//
// Checks whose parameters are unset (negative) are skipped, so the checker
// runs meaningfully on any model: a timed-model trace gets PSC102 only, a
// clock-model trace adds PSC101/103/104/106, an MMT trace adds PSC105.
// PSC101-105 and PSC107 are window evaluations on the window meter's
// measurements (analysis/meter.hpp), the same ones BoundSlackProbe and
// CertificateProbe evaluate. Action names follow the library's conventions
// (core/msg_class.hpp); renamed systems need their traces translated back
// before checking.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/meter.hpp"
#include "analysis/windows.hpp"
#include "core/trace.hpp"
#include "obs/probe.hpp"

namespace psc {

struct TraceCheckOptions {
  // C_eps accuracy; negative disables the clock checks (PSC101/104/106).
  Duration eps = -1;
  // Physical channel bounds; d2 < 0 disables the window checks (PSC102/104).
  Duration d1 = -1;
  Duration d2 = -1;
  // MMT boundmap upper bound; negative disables PSC105 and narrows the
  // PSC101/106 band to eps (no missed-clock staleness).
  Duration ell = -1;
  // Node count, needed for the per-node classes of PSC106; 0 disables it.
  int num_nodes = 0;
  // Tolerance of the clock-derived checks (PSC101/103/104/105/106); real
  // delivery latency (PSC102) is exact.
  Duration slack = kGridTolerance;
  // Fired synchronously for every *error*-severity diagnostic as it is
  // raised (warns and notes do not fire), before the diagnostic lands in
  // the report. This is the dump-on-violation trigger: psc-sim and the
  // tests hook the flight recorder here so the ring still holds the
  // offending event when the snapshot is taken. Keep the callback cheap
  // and reentrancy-free — it runs on the executor's record path when the
  // checker is attached as an InvariantProbe.
  std::function<void(const Diagnostic&)> on_violation;
};

// Streaming checker: feed events in execution order, each with its window
// meter measurement (a meter with gaps when opts.ell >= 0; gaps are
// ignored otherwise), then finalize().
class TraceChecker {
 public:
  explicit TraceChecker(TraceCheckOptions opts = {});

  void observe(const TimedEvent& e, const Measurement& m);
  // Reports PSC106, after every online diagnostic. Idempotent.
  void finalize();

  const DiagnosticReport& report() const { return report_; }

 private:
  // report_.add plus the TraceCheckOptions::on_violation hook for
  // error-severity codes.
  void emit(DiagCode code, std::string message, std::string machine = "",
            Time time = -1);

  // PSC102 on a physical delivery, PSC103/104 on a Simulation 1 release,
  // PSC107 on an unmatched one.
  void check_delivery(const TimedEvent& e, const Delivery& d);
  void check_gaps(const TimedEvent& e, const Measurement& m);  // PSC105
  // PSC106 for one clocked event.
  void check_order(const TimedEvent& e);

  // PSC106 state per node. Clocks are nondecreasing by construction, so a
  // node's clocked events are already in clock order: the stable clock
  // re-sort of gamma'_alpha leaves them in place, and =band,kappa reduces
  // to |time - clock| <= band per event. A clock that goes down fails the
  // node outright, even when the events it reorders are action-identical.
  struct NodeOrder {
    Time last_clock = std::numeric_limits<Time>::min();
    std::string failure;  // the node's first failure; empty while clean
  };

  TraceCheckOptions opts_;
  DiagnosticReport report_;
  Duration order_band_ = 0;            // PSC106 band: eps + ell + slack
  std::vector<NodeOrder> node_order_;  // empty when PSC106 is off
  // Clocked events outside every node's class (node kNoNode or >=
  // num_nodes): real times and clock readings per action identity, matched
  // sorted-against-sorted at finalize() as eq_within does.
  std::map<std::string, std::pair<std::vector<Time>, std::vector<Time>>>
      unclassed_;
  bool finalized_ = false;
};

// Offline convenience: checks a recorded trace (e.g. read back from a
// psc-sim --trace dump) in one call.
DiagnosticReport check_trace(const TimedTrace& trace,
                             const TraceCheckOptions& opts = {});

// Online form: attach to an Executor (directly or via ObsOptions::lint) and
// read the report after the run. finalize() fires at on_run_end.
class InvariantProbe final : public MeteredProbe {
 public:
  explicit InvariantProbe(TraceCheckOptions opts = {})
      : MeteredProbe(/*mmt_gaps=*/opts.ell >= 0), checker_(std::move(opts)) {}

  // Invariants are checked per event — opt out of the per-advance dispatch.
  bool observes_time() const override { return false; }

  // The microprofiler books this probe's on_event time to its dedicated
  // lint phase, so "what does online checking cost" is directly measured
  // instead of inferred from the PSC_LINT A/B bench arm.
  std::string_view profile_name() const override { return "lint"; }

  void on_measured(const TimedEvent& e, const Measurement& m,
                   const Machine& /*owner*/) override {
    checker_.observe(e, m);
  }
  void on_run_end(Time /*now*/) override { checker_.finalize(); }

  const DiagnosticReport& report() const { return checker_.report(); }

 private:
  TraceChecker checker_;
};

}  // namespace psc
