// Messages exchanged over edges.
//
// Section 3 of the paper assumes every message sent in an execution is
// *unique*. A sender offers its messages unnamed (uid 0 = not yet sent);
// the executor names each when the event that first carries it is
// performed (name_message, core/action.hpp), and forwarders keep that uid,
// so every leg of one message carries one uid. In the clock model
// (Section 4) messages travel as pairs (m, c) where c is the sender's clock
// at send time; `clock_tag` holds that c (kNoClockTag in the timed model).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "core/value.hpp"

namespace psc {

inline constexpr Time kNoClockTag = -1;

struct Message {
  std::string kind;           // e.g. "UPDATE", "ELECT"
  std::vector<Value> fields;  // algorithm-defined payload
  std::uint64_t uid = 0;      // 0 until sent (paper Section 3 uniqueness)
  Time clock_tag = kNoClockTag;  // c in (m, c); set by the send buffer

  bool operator==(const Message& o) const {
    return kind == o.kind && fields == o.fields && uid == o.uid &&
           clock_tag == o.clock_tag;
  }
};

// Builds an unnamed message (uid 0): the event that sends it names it.
Message make_message(std::string kind, std::vector<Value> fields = {});

std::string to_string(const Message& m);

}  // namespace psc
