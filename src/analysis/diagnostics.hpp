// Stable diagnostic codes for the model-conformance analyzer.
//
// Every check the analyzer performs — static composition lints
// (analysis/lint.hpp) and trace invariants (analysis/trace_check.hpp) —
// reports through one of the codes below. Codes are stable across releases
// so CI filters and suppressions can key on them; docs/ANALYSIS.md is the
// catalogue, with the paper reference each code enforces.
//
//   PSC0xx  static composition lints (run before any event fires)
//   PSC1xx  trace invariants (run over an execution, live or offline)
//   PSC2xx  bound certificates (static interference/bound derivation, plus
//           the runtime cross-check of observations against certificates)
//
// Severities: an *error* means the execution (or the composition) is
// outside the paper's model and the theorems do not apply; a *warn* is
// suspicious but not provably wrong; a *note* is informational (dead
// interface, opted-out machine). Only errors fail CI.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/time.hpp"

namespace psc {

enum class Severity { kNote, kWarn, kError };

const char* to_string(Severity s);

enum class DiagCode {
  // --- static composition lints (PSC0xx) ---------------------------------
  kMultiplyClaimed = 1,    // PSC001: kind locally controlled by two machines
  kNoProducer = 2,         // PSC002: declared input no machine can produce
  kNoConsumer = 3,         // PSC003: declared output no machine inputs
  kEndpointMismatch = 4,   // PSC004: name matches, node/peer misaligned
  kEpsMismatch = 5,        // PSC005: clock adapters disagree on eps
  kRealTimeUnderClock = 6, // PSC006: now-reading machine in the clock model
  // 7 and 8 (PSC007, PSC008) are retired; do not reuse them.
  // --- trace invariants (PSC1xx) ------------------------------------------
  kClockDrift = 101,       // PSC101: |clock - time| outside the C_eps band
  kDeliveryWindow = 102,   // PSC102: channel latency outside [d1, d2]
  kEarlyRelease = 103,     // PSC103: Sim1 buffer released before its tag
  kWidenedWindow = 104,    // PSC104: Thm 4.7 clock-time window violated
  kBoundmapOverrun = 105,  // PSC105: MMT tick/step gap exceeds ell
  kOrderViolation = 106,   // PSC106: per-node order not preserved (=eps,kappa)
  kUnknownDelivery = 107,  // PSC107: delivery of a uid never seen sent
  // --- bound certificates (PSC2xx) ----------------------------------------
  kVacuousHopWindow = 201,     // PSC201: derived hop window is empty/invalid
  kZeroLookaheadCycle = 202,   // PSC202: interference cycle with no lookahead
  // 203 (PSC203) is retired; do not reuse it.
  kEpsInconsistentPath = 204,  // PSC204: certified path mixes distinct eps
  kCertContradictsDecl = 205,  // PSC205: harvested bound outside declared one
  kOutsideCertificate = 206,   // PSC206: observation escapes its certificate
  // 207 (PSC207) is retired; do not reuse it.
  kCertCoverage = 208,         // PSC208: certification coverage summary
};

// "PSC001", "PSC101", ... (stable, documented in docs/ANALYSIS.md).
const char* to_string(DiagCode code);
// One-line description of what the code means.
const char* summary(DiagCode code);
Severity default_severity(DiagCode code);

struct Diagnostic {
  DiagCode code;
  Severity severity;
  std::string message;  // instance detail (machines, kinds, times, bounds)
  std::string machine;  // offending machine name, when known
  Time time = -1;       // event time, for trace diagnostics
};

// Accumulates diagnostics, keeps exact per-code counts, and caps the
// *stored* instances per code so a systemically-broken trace cannot flood
// memory or the terminal (the count still reports every occurrence).
class DiagnosticReport {
 public:
  static constexpr std::size_t kMaxStoredPerCode = 25;

  void add(DiagCode code, std::string message, std::string machine = "",
           Time time = -1);

  const std::vector<Diagnostic>& diagnostics() const { return stored_; }
  // Total occurrences of `code`, including instances beyond the storage cap.
  std::size_t count(DiagCode code) const;
  std::size_t errors() const { return errors_; }
  std::size_t warnings() const { return warnings_; }
  std::size_t notes() const { return notes_; }
  bool has_errors() const { return errors_ > 0; }
  bool empty() const { return errors_ + warnings_ + notes_ == 0; }

  // Human-readable listing, one diagnostic per line, suppressed-instance
  // summary at the end.
  std::string to_text() const;
  // One JSON object per diagnostic (machine-readable CI artifact).
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<Diagnostic> stored_;
  std::unordered_map<int, std::size_t> counts_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
  std::size_t notes_ = 0;
};

// Code-range versions. Bumped whenever the meaning of a code in the range
// changes, so archived JSONL dumps (the regression corpus of ROADMAP's
// "Adversarial search over one decision stream") stay interpretable against
// the tool that wrote them.
inline constexpr int kPsc0xxVersion = 1;
inline constexpr int kPsc1xxVersion = 1;
inline constexpr int kPsc2xxVersion = 1;

// Versioned header line for JSONL dumps: tool name, payload format, and the
// code-range versions. Written as the first line of every psc-lint --jsonl
// stream so dumps are self-describing.
void write_jsonl_header(std::ostream& os, const char* tool,
                        const char* format);

}  // namespace psc
