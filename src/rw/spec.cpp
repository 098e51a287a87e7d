#include "rw/spec.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "rw/wing_gong.hpp"
#include "util/check.hpp"

namespace psc {

std::string to_string(const Operation& op) {
  std::ostringstream os;
  os << (op.kind == Operation::Kind::kRead ? "R" : "W") << op.proc << "("
     << op.value << ")[" << format_time(op.inv) << "," << format_time(op.res)
     << "]";
  return os.str();
}

namespace {

bool is_invocation(const Action& a) {
  return a.name == names::kRead || a.name == names::kWrite;
}
bool is_response(const Action& a) {
  return a.name == names::kReturn || a.name == names::kAck;
}

}  // namespace

bool alternation_ok(const TimedTrace& trace) {
  std::map<int, const Action*> open;  // node -> pending invocation
  for (const auto& e : trace) {
    const Action& a = e.action;
    if (is_invocation(a)) {
      if (open.count(a.node)) return false;
      open[a.node] = &a;
    } else if (is_response(a)) {
      auto it = open.find(a.node);
      if (it == open.end()) return false;
      const ActionName inv = it->second->name;
      const bool match = (inv == names::kRead && a.name == names::kReturn) ||
                         (inv == names::kWrite && a.name == names::kAck);
      if (!match) return false;
      open.erase(it);
    }
  }
  return true;
}

History extract_history(const TimedTrace& trace) {
  PSC_CHECK(alternation_ok(trace), "trace violates the alternation condition");
  History h;
  struct Pending {
    Operation::Kind kind;
    std::int64_t value;  // for writes
    Time inv;
  };
  std::map<int, Pending> open;
  for (const auto& e : trace) {
    const Action& a = e.action;
    if (a.name == names::kRead) {
      open[a.node] = {Operation::Kind::kRead, 0, e.time};
    } else if (a.name == names::kWrite) {
      open[a.node] = {Operation::Kind::kWrite, as_int(a.args.at(0)), e.time};
    } else if (a.name == names::kReturn) {
      const auto& p = open.at(a.node);
      h.complete.push_back({a.node, Operation::Kind::kRead,
                            as_int(a.args.at(0)), p.inv, e.time});
      open.erase(a.node);
    } else if (a.name == names::kAck) {
      const auto& p = open.at(a.node);
      h.complete.push_back(
          {a.node, Operation::Kind::kWrite, p.value, p.inv, e.time});
      open.erase(a.node);
    }
  }
  h.pending = open.size();
  return h;
}

namespace {

// The register as a Wing-Gong object (rw/wing_gong.hpp).
struct Register {
  using Op = Operation;
  std::int64_t value;

  bool step(const Operation& op, std::int64_t& undo) {
    if (op.kind == Operation::Kind::kRead) return op.value == value;
    undo = value;
    value = op.value;
    return true;
  }
  void undo(const Operation& op, std::int64_t undo) {
    if (op.kind == Operation::Kind::kWrite) value = undo;
  }
  void append_key(std::string& key) const {
    key.append(reinterpret_cast<const char*>(&value), sizeof(value));
  }
};

}  // namespace

LinearizabilityResult check_linearizable(const std::vector<Operation>& ops,
                                         std::int64_t v0,
                                         std::size_t max_states) {
  return wing_gong(ops, Register{v0}, max_states);
}

LinearizabilityResult check_superlinearizable(std::vector<Operation> ops,
                                              std::int64_t v0,
                                              Duration two_eps,
                                              std::size_t max_states) {
  for (auto& op : ops) {
    op.inv += two_eps;  // point must lie in [inv + 2eps, res]
    if (op.inv > op.res) {
      return {false, true, 0,
              "operation shorter than 2eps cannot be superlinearized: " +
                  to_string(op)};
    }
  }
  return check_linearizable(ops, v0, max_states);
}

LinearizabilityResult check_with_points(const std::vector<Operation>& ops,
                                        const std::vector<Time>& points,
                                        std::int64_t v0) {
  PSC_CHECK(points.size() == ops.size(), "one point per operation required");
  std::vector<std::size_t> order(ops.size());
  for (std::size_t k = 0; k < ops.size(); ++k) order[k] = k;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    if (points[k] < ops[k].inv || points[k] > ops[k].res) {
      return {false, true, 0,
              "linearization point outside interval for " + to_string(ops[k])};
    }
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (points[a] != points[b]) return points[a] < points[b];
    const bool aw = ops[a].kind == Operation::Kind::kWrite;
    const bool bw = ops[b].kind == Operation::Kind::kWrite;
    if (aw != bw) return aw;  // writes before reads at equal points
    return ops[a].proc < ops[b].proc;
  });
  std::int64_t value = v0;
  for (std::size_t k : order) {
    const auto& op = ops[k];
    if (op.kind == Operation::Kind::kWrite) {
      value = op.value;
    } else if (op.value != value) {
      return {false, true, 0,
              "read returns " + std::to_string(op.value) + " but register is " +
                  std::to_string(value) + " at " + to_string(op)};
    }
  }
  return {true, true, 0, ""};
}

LinearizabilityResult check_linearizable_multi(
    const std::vector<Operation>& ops, std::int64_t v0,
    std::size_t max_states) {
  std::map<std::int64_t, std::vector<Operation>> by_obj;
  for (const auto& op : ops) by_obj[op.obj].push_back(op);
  LinearizabilityResult combined;
  combined.ok = true;
  for (const auto& [obj, sub] : by_obj) {
    const auto r = check_linearizable(sub, v0, max_states);
    combined.states += r.states;
    combined.conclusive = combined.conclusive && r.conclusive;
    if (!r.ok) {
      combined.ok = false;
      combined.why = "object " + std::to_string(obj) + ": " + r.why;
      return combined;
    }
  }
  return combined;
}

std::vector<Duration> latencies(const std::vector<Operation>& ops,
                                Operation::Kind kind) {
  std::vector<Duration> out;
  for (const auto& op : ops) {
    if (op.kind == kind) out.push_back(op.res - op.inv);
  }
  return out;
}

}  // namespace psc
