#include "runtime/script.hpp"

#include "util/check.hpp"

namespace psc {

ScriptMachine::ScriptMachine(std::string name, std::vector<Step> steps)
    : Machine(std::move(name)), steps_(std::move(steps)) {
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    PSC_CHECK(steps_[i - 1].at <= steps_[i].at,
              "script steps must be time-sorted");
  }
}

void ScriptMachine::accept_kind(std::string name, int node, int peer) {
  accept_kinds_.push_back({std::move(name), node, peer, ActionRole::kInput});
  reset_signature();
}

void ScriptMachine::declare_signature(SignatureDecl& decl) const {
  for (const auto& s : steps_) {
    bool seen = false;
    for (const auto& e : decl.entries()) {  // scripts are short; O(k^2) fine
      if (e.name == s.action.name && e.node == s.action.node &&
          e.peer == s.action.peer) {
        seen = true;
        break;
      }
    }
    if (!seen) decl.output(s.action.name, s.action.node, s.action.peer);
  }
  for (const auto& e : accept_kinds_) decl.input(e.name, e.node, e.peer);
}

void ScriptMachine::apply_input(const Action& a, Time t) {
  TimedEvent e;
  e.action = a;
  e.time = t;
  received_.push_back(std::move(e));
}

std::vector<Action> ScriptMachine::enabled(Time t) const {
  std::vector<Action> out;
  if (next_ < steps_.size() && steps_[next_].at <= t) {
    out.push_back(steps_[next_].action);
  }
  return out;
}

void ScriptMachine::apply_local(const Action& a, Time /*t*/) {
  PSC_CHECK(next_ < steps_.size() && steps_[next_].action == a,
            "script executed out of order: " << to_string(a));
  ++next_;
}

Time ScriptMachine::upper_bound(Time /*t*/) const {
  return next_ < steps_.size() ? steps_[next_].at : kTimeMax;
}

Time ScriptMachine::next_enabled(Time t) const {
  if (next_ >= steps_.size()) return kTimeMax;
  const Time at = steps_[next_].at;
  return at > t ? at : kTimeMax;  // already enabled now — no future hint
}

}  // namespace psc
