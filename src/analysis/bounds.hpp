// Bound certificates (PSC2xx layer 2): end-to-end timing windows derived
// statically from declared signatures and harvested model bounds.
//
// Input is the interference graph (interference.hpp). Each edge gets a
// *hop certificate*: the real-time window a signal needs to cross it —
// the Figure 1 delivery window [d1, d2] when the producer is a relay, the
// MMT boundmap [0, ell] when the producer promises a step bound, [0, 0]
// otherwise — plus the Theorem 4.7 widened clock-time window
// [max(d1-2eps, 0), d2+2eps] when the system carries clocks. Hop windows
// compose into *path certificates* by shortest-path propagation from the
// designated sources: the first influence of a source on a sink arrives
// within [D_lo, D_hi], where D_lo minimizes the sum of hop lower bounds
// and D_hi minimizes the sum of hop upper bounds (sound on cyclic graphs,
// where longest-path would not be). Under MMT, each path also reports the
// Theorem 5.2-composed shift bound k*ell + 2*eps + 3*ell.
//
// Derivation diagnostics:
//   PSC201  a hop window is inverted/vacuous (relay_d1 > relay_d2);
//   PSC202  a cycle of zero-lookahead edges passes through a relay — the
//           network can circulate influence in zero time, so no
//           conservative time window exists;
//   PSC204  machines reachable from the sources report distinct eps — the
//           C_eps predicate is system-wide, so no single widened window
//           describes the path;
//   PSC205  a harvested bound escapes the declared system bound
//           (channel [d1, d2] outside the declared window, ell above the
//           declared step bound);
//   PSC208  coverage summary note (relay edges, certified paths).
//
// The runtime counterpart is CertificateProbe: it indexes the per-edge
// windows by (receiver, sender) and evaluates them on the window meter's
// delivery measurements (analysis/meter.hpp), so every observed delivery
// is cross-checked against its *derived* window. PSC206 fires when an
// observation escapes its certificate — even when the global-bound PSC102
// check passes, because per-edge harvested windows are at least as tight
// as the system-wide [d1, d2].
//
// Everything here is O((V + E) log V): certification of a 65,536-machine
// composition must stay well under the 5-second gate in
// tests/certify_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/interference.hpp"
#include "analysis/meter.hpp"
#include "analysis/windows.hpp"
#include "core/trace.hpp"
#include "obs/probe.hpp"

namespace psc {

struct BoundCertOptions {
  // System eps for the Theorem 4.7 widening; negative means "harvest the
  // first eps the graph reports" (still negative if the system is unclocked).
  Duration eps = -1;
  // Declared system-wide delivery bounds; d2 >= 0 enables the PSC205
  // cross-check of every harvested relay window against [max(d1,0), d2].
  Duration d1 = -1;
  Duration d2 = -1;
  // Declared step bound; >= 0 enables PSC205 on harvested ells.
  Duration ell = -1;
  // Machines to certify paths from, matched by name prefix. Empty means
  // the composition's first machine.
  std::vector<std::string> sources;
};

// Real-time and clock-time windows for one interference edge (parallel to
// InterferenceGraph::edges).
struct HopCert {
  BoundWindow window;        // real-time crossing latency
  BoundWindow clock_window;  // Thm 4.7 widened; == window when unclocked
};

// First-influence window from a source machine to a reachable sink.
struct PathCert {
  std::size_t source = 0;
  std::size_t sink = 0;
  BoundWindow window;     // [D_lo, D_hi]
  std::size_t hops = 0;   // hop count of the D_hi path
  // Theorem 5.2-composed MMT shift bound k*ell + 2*eps + 3*ell; negative
  // when the path carries no MMT step bound or no clock.
  Duration mmt_shift = -1;
};

struct BoundCert {
  BoundCertOptions opts;
  Duration eps = -1;  // effective eps used for the widening
  std::vector<HopCert> hops;          // parallel to graph.edges
  std::vector<PathCert> paths;
  std::vector<std::size_t> sources;   // resolved graph node indices
  DiagnosticReport report;
};

BoundCert certify_bounds(const InterferenceGraph& g,
                         const BoundCertOptions& opts = {});

// JSONL export: one summary line, one line per hop certificate, one per
// path certificate, then the derivation diagnostics. The psc-lint tool
// prepends the versioned header line (write_jsonl_header).
void write_bound_cert_jsonl(std::ostream& os, const BoundCert& cert,
                            const InterferenceGraph& g);

// --- runtime cross-check --------------------------------------------------

struct CertProbeOptions {
  // Fired synchronously for every PSC206 as it is raised (dump-on-violation
  // hook, same contract as TraceCheckOptions::on_violation).
  std::function<void(const Diagnostic&)> on_violation;
};

// Online probe that checks observed deliveries against the *derived*
// per-edge certificates, with kGridTolerance on both real and clock
// latency. harvest() must run before the executor starts (RunObserver::
// attach does it when wired through ObsOptions::cert); the harvest-time
// derivation diagnostics and the online PSC206s accumulate in one report.
class CertificateProbe final : public Probe {
 public:
  explicit CertificateProbe(BoundCertOptions bopts = {},
                            CertProbeOptions popts = {});

  // Builds the interference graph and certificates for the composition and
  // indexes the relay-edge windows by (receiver node, sender peer).
  void harvest(const std::vector<const Machine*>& machines);
  bool harvested() const { return harvested_; }
  const BoundCert& cert() const { return cert_; }
  const DiagnosticReport& report() const { return report_; }

  bool observes_time() const override { return false; }
  // Booked to the microprofiler's lint phase alongside InvariantProbe: both
  // answer "what does online conformance checking cost".
  std::string_view profile_name() const override { return "lint"; }
  void on_event(const TimedEvent& e, const Machine& owner) override;

 private:
  struct EdgeCert {
    BoundWindow real;
    BoundWindow clock;
    bool has_clock = false;
  };
  static std::uint64_t edge_key(int node, int peer) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 32) |
           static_cast<std::uint32_t>(peer);
  }
  void emit(DiagCode code, std::string message, std::string machine,
            Time time);

  BoundCertOptions bopts_;
  CertProbeOptions popts_;
  BoundCert cert_;
  DiagnosticReport report_;
  std::unordered_map<std::uint64_t, EdgeCert> by_edge_;
  WindowMeter meter_{/*mmt_gaps=*/false};
  bool harvested_ = false;
};

}  // namespace psc
