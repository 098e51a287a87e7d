// The library's action-name conventions as one byte.
//
// Six action names carry model meaning beyond their own machine: the
// timed-model channel legs SENDMSG / RECVMSG (Figure 1), Simulation 1's
// physical legs ESENDMSG / ERECVMSG (Figure 2), and the MMT model's TICK
// and MMTSTEP (Section 5). They hold the interned name ids 1-6 in MsgClass
// order (core/action.hpp), so every layer that dispatches on them (the
// online checkers' window meter, the flight recorder, the causal message
// index, the Simulation 1 and MMT probes) reads the class off the name
// with ActionName::msg_class(). Renamed systems carry other names and
// classify as kOther.
#pragma once

#include <cstdint>

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

// One of the four legs a message travels (send, physical send, physical
// delivery, delivery or release).
constexpr bool is_msg_leg(MsgClass c) {
  return c >= MsgClass::kSend && c <= MsgClass::kERecv;
}

}  // namespace psc
