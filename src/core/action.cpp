#include "core/action.hpp"

#include <deque>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "util/check.hpp"

namespace psc {

namespace {

// The process-wide name table: text -> id, seeded with detail::kSeededNames
// at their ids. Texts interned at run time live in `owned`, whose elements
// never move, so every ActionName's view stays valid for the process.
struct NameTable {
  std::mutex mu;
  std::unordered_map<std::string_view, ActionName::Id> ids;
  std::deque<std::string> owned;

  NameTable() {
    for (std::size_t i = 0; i < detail::kSeededCount; ++i) {
      ids.emplace(detail::kSeededNames[i], static_cast<ActionName::Id>(i));
    }
  }
};

// Never destroyed: names may be interned and read during static
// destruction.
NameTable& name_table() {
  static auto* table = new NameTable();
  return *table;
}

}  // namespace

ActionName::ActionName(std::string_view text) {
  NameTable& t = name_table();
  const std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.ids.find(text);
  if (it == t.ids.end()) {
    const std::size_t id = t.ids.size();
    PSC_CHECK(id < kMaxIds, "more than " << kMaxIds << " action names");
    const std::string& owned = t.owned.emplace_back(text);
    it = t.ids.emplace(owned, static_cast<Id>(id)).first;
  }
  *this = ActionName(it->second, it->first);
}

std::ostream& operator<<(std::ostream& os, ActionName n) {
  return os << n.view();
}

void detail::kind_field_out_of_range(int node, int peer) {
  PSC_CHECK(false, "action kind node " << node << " / peer " << peer
                                       << " outside the kind key's 24 bits");
  __builtin_unreachable();
}

std::string to_string(const Action& a) {
  std::ostringstream os;
  os << a.name;
  if (a.node != kNoNode) os << "_" << a.node;
  os << '(';
  bool first = true;
  if (a.peer != kNoNode) {
    os << a.peer;
    first = false;
  }
  for (const auto& v : a.args) {
    if (!first) os << ", ";
    os << to_string(v);
    first = false;
  }
  if (a.msg) {
    if (!first) os << ", ";
    os << to_string(*a.msg);
  }
  os << ')';
  return os.str();
}

bool matches_offer(const Action& offered, const Action& performed) {
  if (!offered.msg || offered.msg->uid != 0 || !performed.msg) {
    return offered == performed;
  }
  const Message& o = *offered.msg;
  const Message& p = *performed.msg;
  return offered.same_kind(performed) && offered.args == performed.args &&
         o.kind == p.kind && o.fields == p.fields &&
         o.clock_tag == p.clock_tag;
}

Action make_send(int i, int j, Message m, ActionName name) {
  Action a;
  a.name = name;
  a.node = i;
  a.peer = j;
  a.msg = std::move(m);
  return a;
}

Action make_recv(int i, int j, Message m, ActionName name) {
  Action a;
  a.name = name;
  a.node = i;
  a.peer = j;
  a.msg = std::move(m);
  return a;
}

Action make_action(ActionName name, int node, std::vector<Value> args) {
  Action a;
  a.name = name;
  a.node = node;
  a.args = std::move(args);
  return a;
}

}  // namespace psc
