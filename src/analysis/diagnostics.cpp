#include "analysis/diagnostics.hpp"

#include <ostream>
#include <sstream>

namespace psc {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
  }
  return "?";
}

const char* to_string(DiagCode code) {
  switch (code) {
    case DiagCode::kMultiplyClaimed:
      return "PSC001";
    case DiagCode::kNoProducer:
      return "PSC002";
    case DiagCode::kNoConsumer:
      return "PSC003";
    case DiagCode::kEndpointMismatch:
      return "PSC004";
    case DiagCode::kEpsMismatch:
      return "PSC005";
    case DiagCode::kRealTimeUnderClock:
      return "PSC006";
    case DiagCode::kClockDrift:
      return "PSC101";
    case DiagCode::kDeliveryWindow:
      return "PSC102";
    case DiagCode::kEarlyRelease:
      return "PSC103";
    case DiagCode::kWidenedWindow:
      return "PSC104";
    case DiagCode::kBoundmapOverrun:
      return "PSC105";
    case DiagCode::kOrderViolation:
      return "PSC106";
    case DiagCode::kUnknownDelivery:
      return "PSC107";
    case DiagCode::kVacuousHopWindow:
      return "PSC201";
    case DiagCode::kZeroLookaheadCycle:
      return "PSC202";
    case DiagCode::kEpsInconsistentPath:
      return "PSC204";
    case DiagCode::kCertContradictsDecl:
      return "PSC205";
    case DiagCode::kOutsideCertificate:
      return "PSC206";
    case DiagCode::kShardLookaheadLow:
      return "PSC207";
    case DiagCode::kCertCoverage:
      return "PSC208";
  }
  return "PSC???";
}

const char* summary(DiagCode code) {
  switch (code) {
    case DiagCode::kMultiplyClaimed:
      return "action kind locally controlled by two machines";
    case DiagCode::kNoProducer:
      return "declared input has no producer";
    case DiagCode::kNoConsumer:
      return "declared output has no consumer";
    case DiagCode::kEndpointMismatch:
      return "producer/consumer endpoints misaligned";
    case DiagCode::kEpsMismatch:
      return "clock adapters disagree on eps (C_eps is system-wide)";
    case DiagCode::kRealTimeUnderClock:
      return "machine reads real time under a clock adapter";
    case DiagCode::kClockDrift:
      return "clock reading outside the C_eps drift band";
    case DiagCode::kDeliveryWindow:
      return "channel delivery outside [d1, d2]";
    case DiagCode::kEarlyRelease:
      return "Simulation 1 buffer released a message before its send tag";
    case DiagCode::kWidenedWindow:
      return "clock-time delivery outside [max(d1-2eps,0), d2+2eps]";
    case DiagCode::kBoundmapOverrun:
      return "MMT tick/step gap exceeds the boundmap upper bound ell";
    case DiagCode::kOrderViolation:
      return "per-node order not preserved within the C_eps band";
    case DiagCode::kUnknownDelivery:
      return "delivery of a message never observed being sent";
    case DiagCode::kVacuousHopWindow:
      return "derived hop window is empty or inverted";
    case DiagCode::kZeroLookaheadCycle:
      return "interference cycle with zero lookahead (unshardable)";
    case DiagCode::kEpsInconsistentPath:
      return "certified path crosses machines with distinct eps";
    case DiagCode::kCertContradictsDecl:
      return "harvested bound contradicts the declared system bound";
    case DiagCode::kOutsideCertificate:
      return "observed quantity outside its derived certificate window";
    case DiagCode::kShardLookaheadLow:
      return "shard plan's cross-shard lookahead below the required floor";
    case DiagCode::kCertCoverage:
      return "certification coverage summary";
  }
  return "?";
}

Severity default_severity(DiagCode code) {
  switch (code) {
    case DiagCode::kNoConsumer:
    case DiagCode::kCertCoverage:
      return Severity::kNote;
    case DiagCode::kUnknownDelivery:
      return Severity::kWarn;
    default:
      return Severity::kError;
  }
}

void DiagnosticReport::add(DiagCode code, std::string message,
                           std::string machine, Time time) {
  const Severity sev = default_severity(code);
  switch (sev) {
    case Severity::kError:
      ++errors_;
      break;
    case Severity::kWarn:
      ++warnings_;
      break;
    case Severity::kNote:
      ++notes_;
      break;
  }
  std::size_t& n = counts_[static_cast<int>(code)];
  ++n;
  if (n <= kMaxStoredPerCode) {
    stored_.push_back(Diagnostic{code, sev, std::move(message),
                                 std::move(machine), time});
  }
}

std::size_t DiagnosticReport::count(DiagCode code) const {
  const auto it = counts_.find(static_cast<int>(code));
  return it == counts_.end() ? 0 : it->second;
}

std::string DiagnosticReport::to_text() const {
  std::ostringstream os;
  for (const Diagnostic& d : stored_) {
    os << to_string(d.code) << ' ' << to_string(d.severity) << ": "
       << summary(d.code);
    if (!d.machine.empty()) os << " [" << d.machine << ']';
    if (d.time >= 0) os << " at " << format_time(d.time);
    if (!d.message.empty()) os << " — " << d.message;
    os << '\n';
  }
  for (const auto& [code, n] : counts_) {
    if (n > kMaxStoredPerCode) {
      os << to_string(static_cast<DiagCode>(code)) << ": "
         << (n - kMaxStoredPerCode) << " further instance(s) suppressed\n";
    }
  }
  if (!empty()) {
    os << errors_ << " error(s), " << warnings_ << " warning(s), " << notes_
       << " note(s)\n";
  }
  return os.str();
}

namespace {
void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(ch >> 4) & 0xf] << hex[ch & 0xf];
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}
}  // namespace

void DiagnosticReport::write_jsonl(std::ostream& os) const {
  for (const Diagnostic& d : stored_) {
    os << "{\"code\":\"" << to_string(d.code) << "\",\"severity\":\""
       << to_string(d.severity) << "\",\"summary\":";
    write_json_string(os, summary(d.code));
    os << ",\"message\":";
    write_json_string(os, d.message);
    if (!d.machine.empty()) {
      os << ",\"machine\":";
      write_json_string(os, d.machine);
    }
    if (d.time >= 0) os << ",\"time_ns\":" << d.time;
    os << "}\n";
  }
}

void write_jsonl_header(std::ostream& os, const char* tool,
                        const char* format) {
  os << "{\"tool\":";
  write_json_string(os, tool);
  os << ",\"format\":";
  write_json_string(os, format);
  os << ",\"ranges\":{\"psc0xx\":" << kPsc0xxVersion
     << ",\"psc1xx\":" << kPsc1xxVersion << ",\"psc2xx\":" << kPsc2xxVersion
     << "}}\n";
}

}  // namespace psc
