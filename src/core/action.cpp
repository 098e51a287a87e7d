#include "core/action.hpp"

#include <sstream>

namespace psc {

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

Action make_send(int i, int j, Message m, const char* name) {
  Action a;
  a.name = name;
  a.node = i;
  a.peer = j;
  a.msg = std::move(m);
  return a;
}

Action make_recv(int i, int j, Message m, const char* name) {
  Action a;
  a.name = name;
  a.node = i;
  a.peer = j;
  a.msg = std::move(m);
  return a;
}

Action make_action(std::string name, int node, std::vector<Value> args) {
  Action a;
  a.name = std::move(name);
  a.node = node;
  a.args = std::move(args);
  return a;
}

}  // namespace psc
