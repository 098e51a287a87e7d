#include "runtime/composite.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

CompositeMachine::CompositeMachine(std::string name)
    : Machine(std::move(name)) {}

void CompositeMachine::add(std::unique_ptr<Machine> member) {
  PSC_CHECK(member != nullptr, "null member");
  members_.push_back(std::move(member));
  touched_flag_.push_back(0);
  routes_.clear();
  reset_signature();
}

void CompositeMachine::hide(ActionName action_name) {
  hidden_.insert(action_name);
  reset_signature();
}

Machine& CompositeMachine::member(std::size_t idx) {
  PSC_CHECK(idx < members_.size(), "member index " << idx);
  return *members_[idx];
}

const Machine& CompositeMachine::member(std::size_t idx) const {
  PSC_CHECK(idx < members_.size(), "member index " << idx);
  return *members_[idx];
}

void CompositeMachine::declare_signature(SignatureDecl& decl) const {
  struct Local {
    const SignatureDecl::Entry* entry;
    std::size_t member;
  };
  std::vector<Local> locals;
  std::vector<const SignatureDecl::Entry*> inputs;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    for (const SignatureDecl::Entry& e : members_[i]->signature().entries()) {
      if (e.role == ActionRole::kInput) {
        inputs.push_back(&e);
      } else {
        locals.push_back(Local{&e, i});
      }
    }
  }
  // Def 2.2 compatibility: the members' locally controlled actions are
  // disjoint.
  for (std::size_t i = 0; i < locals.size(); ++i) {
    for (std::size_t j = i + 1; j < locals.size(); ++j) {
      PSC_CHECK(locals[i].member == locals[j].member ||
                    !locals[i].entry->overlaps(*locals[j].entry),
                "action " << locals[i].entry->name
                          << " locally controlled by two members of "
                          << name() << ": "
                          << members_[locals[i].member]->name() << " and "
                          << members_[locals[j].member]->name());
    }
  }
  for (const Local& l : locals) {
    const ActionRole role = hidden_.count(l.entry->name)
                                ? ActionRole::kInternal
                                : ActionRole::kOutput;
    decl.add(l.entry->name, l.entry->node, l.entry->peer, role);
  }
  // An input a member's local entry also matches stays declared: local
  // beats input in classify() and in the executor's routing alike.
  for (const SignatureDecl::Entry* e : inputs) {
    decl.add(e->name, e->node, e->peer, ActionRole::kInput);
  }
}

const CompositeMachine::Route& CompositeMachine::route(const Action& a) {
  const KindKey key = kind_key(a);
  const auto it = routes_.find(key);
  if (it != routes_.end()) return it->second;
  Route r;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const ActionRole role = members_[i]->classify(a);
    if (role == ActionRole::kInput) {
      r.inputs.push_back(static_cast<std::uint32_t>(i));
    } else if (role != ActionRole::kNotMine && r.owner == kNoOwner) {
      r.owner = static_cast<std::uint32_t>(i);
      r.role = role;
    }
  }
  return routes_.emplace(key, std::move(r)).first->second;
}

void CompositeMachine::apply_input(const Action& a, Time t) {
  for (const std::uint32_t i : route(a).inputs) {
    members_[i]->apply_input(a, t);
    touch(i);
  }
}

void CompositeMachine::enabled_into(Time t, Candidates& out) const {
  out.clear();
  for (const auto& m : members_) {
    m->enabled_into(t, scratch_);
    for (const Action& a : scratch_) out.push_back(a);
  }
}

void CompositeMachine::apply_local(const Action& a, Time t) {
  const Route& r = route(a);
  PSC_CHECK(r.owner != kNoOwner, "no member of " << name() << " controls "
                                                 << to_string(a));
  members_[r.owner]->apply_local(a, t);
  touch(r.owner);
  // An output is also routed to the members that input it; the owner
  // classifies its own kind as local, so it is never among them.
  if (r.role != ActionRole::kOutput) return;
  for (const std::uint32_t i : r.inputs) {
    members_[i]->apply_input(a, t);
    touch(i);
  }
}

void CompositeMachine::take_touched_parts(std::vector<std::uint32_t>& out) {
  for (const std::uint32_t i : touched_) {
    touched_flag_[i] = 0;
    out.push_back(i);
  }
  touched_.clear();
}

Time CompositeMachine::upper_bound(Time t) const {
  Time ub = kTimeMax;
  for (const auto& m : members_) ub = std::min(ub, m->upper_bound(t));
  return ub;
}

Time CompositeMachine::next_enabled(Time t) const {
  Time ne = kTimeMax;
  for (const auto& m : members_) ne = std::min(ne, m->next_enabled(t));
  return ne;
}

}  // namespace psc
