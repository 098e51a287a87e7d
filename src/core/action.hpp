// Actions — the alphabet of the automaton models.
//
// An action is identified by a name plus its parameters, exactly as in the
// paper: READ_i, WRITE_i(v), SENDMSG_i(j, m), TICK_i(c), ... The `node`
// subscript carries the per-node partition used by problems (Def 2.10) and
// by the trace relations' kappa classes.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/message.hpp"
#include "core/msg_class.hpp"
#include "core/time.hpp"
#include "core/value.hpp"

namespace psc {

inline constexpr int kNoNode = -1;

// Wildcard for signature declarations (machine.hpp): an entry with node or
// peer set to kAnyNode matches any value of that field.
inline constexpr int kAnyNode = -2;

// --- Interned action names -----------------------------------------------
//
// An action name ("READ", "SENDMSG", ...) is interned once in a
// process-wide table and carried as a dense id plus a view of the table's
// text. Copying a name copies 16 bytes, comparing two names compares ids,
// and a kind packs into one integer (kind_key below); comparing against a
// string literal still compiles and compares text.
//
// The table is seeded with the library's conventional names at fixed ids
// (names::k* below), so those are compile-time constants. The six names
// that carry model meaning (core/msg_class.hpp) hold ids 1-6 in MsgClass
// order, which makes a name's MsgClass a function of its id: the class
// column of the table costs no storage and no lookup.
class ActionName {
 public:
  using Id = std::uint32_t;
  // Ids fit 16 bits so that a kind key holds one (see kind_key).
  static constexpr Id kMaxIds = Id{1} << 16;

  constexpr ActionName() = default;  // the empty name, id 0
  // Implicit, as a string is: interns `text` (a locked table lookup; hot
  // paths use names::k* or a name interned once at construction).
  ActionName(std::string_view text);
  ActionName(const char* text) : ActionName(std::string_view(text)) {}
  ActionName(const std::string& text) : ActionName(std::string_view(text)) {}

  constexpr Id id() const { return id_; }
  constexpr std::string_view view() const { return {data_, size_}; }
  constexpr operator std::string_view() const { return view(); }
  std::string str() const { return std::string(view()); }
  constexpr MsgClass msg_class() const {
    return id_ >= 1 && id_ <= kMsgClassIds ? static_cast<MsgClass>(id_)
                                           : MsgClass::kOther;
  }

  // The name seeded at `id` (names::k*); constant-evaluated.
  static constexpr ActionName seeded(Id id);

  friend constexpr bool operator==(ActionName a, ActionName b) {
    return a.id_ == b.id_;
  }
  friend constexpr bool operator==(ActionName a, std::string_view b) {
    return a.view() == b;
  }
  friend constexpr bool operator==(ActionName a, const char* b) {
    return a.view() == std::string_view(b);
  }
  friend bool operator==(ActionName a, const std::string& b) {
    return a.view() == b;
  }
  // Text order (ids follow interning order, which callers must not see).
  friend constexpr std::strong_ordering operator<=>(ActionName a,
                                                    ActionName b) {
    return a.id_ == b.id_ ? std::strong_ordering::equal : a.view() <=> b.view();
  }

 private:
  static constexpr Id kMsgClassIds = 6;
  constexpr ActionName(Id id, std::string_view text)
      : data_(text.data()), size_(static_cast<std::uint32_t>(text.size())),
        id_(id) {}

  const char* data_ = "";
  std::uint32_t size_ = 0;
  Id id_ = 0;
};

std::ostream& operator<<(std::ostream& os, ActionName n);

namespace detail {
// The seeded names, in id order. Ids 1-6 are the MsgClass names in
// MsgClass order (checked below); append, never reorder.
inline constexpr std::string_view kSeededNames[] = {
    "",     "SENDMSG", "RECVMSG", "ESENDMSG", "ERECVMSG", "TICK",    "MMTSTEP",
    "READ", "WRITE",   "RETURN",  "ACK",      "UPDATE",   "DELIVER", "COMPLETE",
};
inline constexpr std::size_t kSeededCount = std::size(kSeededNames);
// The class each name's text spells, independent of its id.
constexpr MsgClass msg_class(std::string_view name) {
  if (name == "SENDMSG") return MsgClass::kSend;
  if (name == "RECVMSG") return MsgClass::kRecv;
  if (name == "ESENDMSG") return MsgClass::kESend;
  if (name == "ERECVMSG") return MsgClass::kERecv;
  if (name == "TICK") return MsgClass::kTick;
  if (name == "MMTSTEP") return MsgClass::kMmtStep;
  return MsgClass::kOther;
}
constexpr bool seeded_classes_agree() {
  for (std::size_t i = 0; i < kSeededCount; ++i) {
    const MsgClass want = i >= 1 && i <= 6 ? static_cast<MsgClass>(i)
                                           : MsgClass::kOther;
    if (msg_class(kSeededNames[i]) != want) return false;
  }
  return true;
}
static_assert(seeded_classes_agree(),
              "the MsgClass names must hold ids 1-6 in MsgClass order");
}  // namespace detail

constexpr ActionName ActionName::seeded(Id id) {
  return ActionName(id, detail::kSeededNames[id]);
}

namespace names {
inline constexpr ActionName kSendMsg = ActionName::seeded(1);
inline constexpr ActionName kRecvMsg = ActionName::seeded(2);
inline constexpr ActionName kESendMsg = ActionName::seeded(3);
inline constexpr ActionName kERecvMsg = ActionName::seeded(4);
inline constexpr ActionName kTick = ActionName::seeded(5);
inline constexpr ActionName kMmtStep = ActionName::seeded(6);
inline constexpr ActionName kRead = ActionName::seeded(7);
inline constexpr ActionName kWrite = ActionName::seeded(8);
inline constexpr ActionName kReturn = ActionName::seeded(9);
inline constexpr ActionName kAck = ActionName::seeded(10);
inline constexpr ActionName kUpdate = ActionName::seeded(11);
inline constexpr ActionName kDeliver = ActionName::seeded(12);
inline constexpr ActionName kComplete = ActionName::seeded(13);
}  // namespace names

struct Action {
  ActionName name;           // e.g. "READ", "SENDMSG"
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

  // Field by field, for the executor's per-event swap of a candidate into
  // its event: the arg vectors trade buffers and two absent messages cost
  // nothing, where std::swap's three moves would each move every field.
  friend void swap(Action& a, Action& b) noexcept {
    std::swap(a.name, b.name);
    std::swap(a.node, b.node);
    std::swap(a.peer, b.peer);
    a.args.swap(b.args);
    a.msg.swap(b.msg);
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

// --- Action kinds --------------------------------------------------------
//
// An action *kind* is the (name, node, peer) triple — exactly the identity
// used by Action::same_kind(). It packs into one 64-bit key: the name id in
// the top 16 bits, node + 2 and peer + 2 in 24 bits each (kAnyNode = -2
// maps to 0), so a kind compares and hashes as one integer. The executor
// further interns each distinct kind of a run to a dense ActionKindId (see
// runtime/executor.hpp and docs/EXECUTOR.md).

using ActionKindId = std::int32_t;
inline constexpr ActionKindId kNoKind = -1;

using KindKey = std::uint64_t;

namespace detail {
inline constexpr std::uint32_t kKindFieldMax = std::uint32_t{1} << 24;
[[noreturn]] void kind_field_out_of_range(int node, int peer);
}  // namespace detail

inline KindKey kind_key(ActionName name, int node, int peer) {
  const auto n = static_cast<std::uint32_t>(node + 2);
  const auto p = static_cast<std::uint32_t>(peer + 2);
  if ((n | p) >= detail::kKindFieldMax) {
    detail::kind_field_out_of_range(node, peer);
  }
  return (KindKey{name.id()} << 48) | (KindKey{n} << 24) | KindKey{p};
}
inline KindKey kind_key(const Action& a) {
  return kind_key(a.name, a.node, a.peer);
}

// --- Candidate lists -----------------------------------------------------
//
// What Machine::enabled_into fills: the live candidates, in order, in front
// of the Actions earlier polls left behind. clear() and push_back keep a
// vector's meaning; slot() hands out the next retained Action with its kind
// set and its args cleared, for the caller to fill args and set or reset
// msg. A poll that offers fewer candidates than the last one only lowers
// the live count, so the retained Actions keep their args and message
// blocks for the next poll, and a poll that refills them assigns into those
// blocks instead of allocating.
class Candidates {
 public:
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  void clear() { n_ = 0; }

  Action& slot(ActionName name, int node, int peer = kNoNode) {
    Action& a = next();
    a.name = name;
    a.node = node;
    a.peer = peer;
    a.args.clear();
    return a;
  }
  void push_back(const Action& a) {
    if (n_ == items_.size()) {
      items_.push_back(a);  // `a` may live in items_
      ++n_;
    } else {
      items_[n_++] = a;
    }
  }
  void push_back(Action&& a) { next() = std::move(a); }

  Action& operator[](std::size_t k) { return items_[k]; }
  const Action& operator[](std::size_t k) const { return items_[k]; }
  Action& front() { return items_.front(); }
  Action* begin() { return items_.data(); }
  Action* end() { return items_.data() + n_; }
  const Action* begin() const { return items_.data(); }
  const Action* end() const { return items_.data() + n_; }

  // Actions held, live or retained.
  std::size_t retained() const { return items_.size(); }
  std::vector<Action> to_vector() const { return {begin(), end()}; }

 private:
  Action& next() {
    if (n_ == items_.size()) items_.emplace_back();
    return items_[n_++];
  }

  std::vector<Action> items_;
  std::size_t n_ = 0;  // live candidates: items_[0, n_)
};

// --- Constructors mirroring the paper's notation -------------------------

// SENDMSG_i(j, m): node i sends m toward node j.
Action make_send(int i, int j, Message m, ActionName name = names::kSendMsg);
// RECVMSG_i(j, m): node i receives m from node j.
Action make_recv(int i, int j, Message m, ActionName name = names::kRecvMsg);
// Generic named action at node i with args.
Action make_action(ActionName name, int node, std::vector<Value> args = {});

}  // namespace psc

template <>
struct std::hash<psc::ActionName> {
  std::size_t operator()(psc::ActionName n) const noexcept {
    return std::hash<std::uint32_t>{}(n.id());
  }
};
