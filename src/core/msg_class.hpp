// The library's action-name conventions as one byte.
//
// Six action names carry model meaning beyond their own machine: the
// timed-model channel legs SENDMSG / RECVMSG (Figure 1), Simulation 1's
// physical legs ESENDMSG / ERECVMSG (Figure 2), and the MMT model's TICK
// and MMTSTEP (Section 5). Every layer that dispatches on them (the online
// checkers' window meter, the flight recorder, the causal message index,
// the Simulation 1 and MMT probes) classifies through msg_class(), so the
// names are spelled once. Renamed systems carry other names and classify
// as kOther.
#pragma once

#include <cstdint>
#include <string_view>

namespace psc {

// The numeric values are part of the flight recorder's PSCFLT01 snapshot
// format (obs/flight.hpp pins them): append, never renumber.
enum class MsgClass : std::uint8_t {
  kOther = 0,
  kSend,     // SENDMSG   (user-level send)
  kRecv,     // RECVMSG   (delivery / Simulation 1 buffer release)
  kESend,    // ESENDMSG  (physical send under Simulation 1)
  kERecv,    // ERECVMSG  (physical delivery under Simulation 1)
  kTick,     // TICK      (the MMT clock subsystem)
  kMmtStep,  // MMTSTEP   (an MMT node's step)
};

// Dispatches on length before comparing bytes: hand-built and legacy-loop
// events carry no interned kind, so their consumers classify per event.
constexpr MsgClass msg_class(std::string_view name) {
  switch (name.size()) {
    case 4:
      return name == "TICK" ? MsgClass::kTick : MsgClass::kOther;
    case 7:
      if (name == "SENDMSG") return MsgClass::kSend;
      if (name == "RECVMSG") return MsgClass::kRecv;
      if (name == "MMTSTEP") return MsgClass::kMmtStep;
      return MsgClass::kOther;
    case 8:
      if (name == "ESENDMSG") return MsgClass::kESend;
      if (name == "ERECVMSG") return MsgClass::kERecv;
      return MsgClass::kOther;
    default:
      return MsgClass::kOther;
  }
}

// One of the four legs a message travels (send, physical send, physical
// delivery, delivery or release).
constexpr bool is_msg_leg(MsgClass c) {
  return c >= MsgClass::kSend && c <= MsgClass::kERecv;
}

}  // namespace psc
