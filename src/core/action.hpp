// Actions — the alphabet of the automaton models.
//
// An action is identified by a name plus its parameters, exactly as in the
// paper: READ_i, WRITE_i(v), SENDMSG_i(j, m), TICK_i(c), ... The `node`
// subscript carries the per-node partition used by problems (Def 2.10) and
// by the trace relations' kappa classes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/message.hpp"
#include "core/time.hpp"
#include "core/value.hpp"

namespace psc {

inline constexpr int kNoNode = -1;

// Wildcard for signature declarations (machine.hpp): an entry with node or
// peer set to kAnyNode matches any value of that field.
inline constexpr int kAnyNode = -2;

struct Action {
  std::string name;          // e.g. "READ", "SENDMSG"
  int node = kNoNode;        // the subscript i (owning node), if any
  int peer = kNoNode;        // the argument j of SENDMSG_i(j, m), if any
  std::vector<Value> args;   // non-message parameters (v, c, t, ...)
  std::optional<Message> msg;  // message parameter m, if any

  bool operator==(const Action& o) const {
    return name == o.name && node == o.node && peer == o.peer &&
           args == o.args && msg == o.msg;
  }

  // Identity disregarding parameter values — used when matching "the same
  // action" across retimed traces is needed per action occurrence.
  bool same_kind(const Action& o) const {
    return name == o.name && node == o.node && peer == o.peer;
  }
};

std::string to_string(const Action& a);

// --- Naming messages -----------------------------------------------------
//
// A machine offers the messages it sends unnamed (Message::uid 0). The
// driver that performs an action — the executor, the test-side reference
// loop, the MachineFuzzer — names its message first, before the owner and
// the receivers apply it, from a counter of its own that starts at 1. A
// message that already has a uid (one a channel or buffer forwards) keeps
// it.
inline void name_message(Action& a, std::uint64_t& next_uid) {
  if (a.msg && a.msg->uid == 0) a.msg->uid = next_uid++;
}

// True iff `performed` is the action `offered` as a driver performs it:
// equal in every field, except that an unnamed offered message matches
// whatever uid the driver gave it. For machines that check the action they
// are asked to apply against one they offered.
bool matches_offer(const Action& offered, const Action& performed);

// --- Interned action kinds ----------------------------------------------
//
// An action *kind* is the (name, node, peer) triple — exactly the identity
// used by Action::same_kind(). The executor interns each distinct kind to a
// dense integer id so that hot-path routing, composition-compatibility
// checks and hiding are integer tests instead of per-event string hashing
// (see runtime/executor.hpp and docs/EXECUTOR.md).

using ActionKindId = std::int32_t;
inline constexpr ActionKindId kNoKind = -1;

struct ActionKindKey {
  std::string name;
  int node = kNoNode;
  int peer = kNoNode;

  bool operator==(const ActionKindKey& o) const {
    return node == o.node && peer == o.peer && name == o.name;
  }
};

// Borrowed key for allocation-free lookups from a live Action.
struct ActionKindView {
  std::string_view name;
  int node = kNoNode;
  int peer = kNoNode;
};

namespace detail {
inline std::size_t kind_hash(std::string_view name, int node, int peer) {
  std::size_t h = std::hash<std::string_view>{}(name);
  h ^= static_cast<std::size_t>(node) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  h ^= static_cast<std::size_t>(peer) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  return h;
}
}  // namespace detail

// Transparent hash/eq so an unordered_map keyed by ActionKindKey can be
// probed with an ActionKindView without constructing a std::string.
struct ActionKindHash {
  using is_transparent = void;
  std::size_t operator()(const ActionKindKey& k) const {
    return detail::kind_hash(k.name, k.node, k.peer);
  }
  std::size_t operator()(const ActionKindView& v) const {
    return detail::kind_hash(v.name, v.node, v.peer);
  }
};

struct ActionKindEq {
  using is_transparent = void;
  bool operator()(const ActionKindKey& a, const ActionKindKey& b) const {
    return a == b;
  }
  bool operator()(const ActionKindView& a, const ActionKindKey& b) const {
    return a.node == b.node && a.peer == b.peer && a.name == b.name;
  }
  bool operator()(const ActionKindKey& a, const ActionKindView& b) const {
    return a.node == b.node && a.peer == b.peer && a.name == b.name;
  }
};

// --- Recycled candidate lists --------------------------------------------
//
// A Machine::enabled_into override rebuilds its candidate list in place so
// the names, args vectors and message payloads already in `out` keep their
// heap blocks from poll to poll. It fills slots 0, 1, ... through this
// helper and ends with out.resize(count). Slot `n` (n <= out.size()) is
// appended when the list is that short, and comes back with its kind set
// and its args cleared; the caller fills args and sets or resets msg.
inline Action& candidate_slot(std::vector<Action>& out, std::size_t n,
                              std::string_view name, int node,
                              int peer = kNoNode) {
  if (n == out.size()) out.emplace_back();
  Action& a = out[n];
  a.name.assign(name);
  a.node = node;
  a.peer = peer;
  a.args.clear();
  return a;
}

// --- Constructors mirroring the paper's notation -------------------------

// SENDMSG_i(j, m): node i sends m toward node j.
Action make_send(int i, int j, Message m, const char* name = "SENDMSG");
// RECVMSG_i(j, m): node i receives m from node j.
Action make_recv(int i, int j, Message m, const char* name = "RECVMSG");
// Generic named action at node i with args.
Action make_action(std::string name, int node, std::vector<Value> args = {});

}  // namespace psc
