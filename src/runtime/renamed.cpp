#include "runtime/renamed.hpp"

#include "util/check.hpp"

namespace psc {

RenamedMachine::RenamedMachine(std::unique_ptr<Machine> inner,
                               std::map<std::string, std::string> outer_of_inner)
    : Machine("ren(" + inner->name() + ")"),
      inner_(std::move(inner)),
      outer_of_inner_(std::move(outer_of_inner)) {
  set_clocked(inner_->clocked());
  for (const auto& [in, out] : outer_of_inner_) {
    const auto [it, fresh] = inner_of_outer_.emplace(out, in);
    PSC_CHECK(fresh, "renaming is not injective: two inner names map to "
                         << out);
    (void)it;
  }
  // An unmapped inner name that is also the image of another inner name
  // would alias at the boundary.
  for (const SignatureDecl::Entry& e : inner_->signature().entries()) {
    if (outer_of_inner_.count(e.name) != 0) continue;
    const auto image = inner_of_outer_.find(e.name);
    PSC_CHECK(image == inner_of_outer_.end() || image->second == e.name,
              "renaming aliases " << e.name << ": the inner machine declares "
                                  << e.name << " and maps " << image->second
                                  << " onto it");
  }
}

Action RenamedMachine::to_inner(const Action& a) const {
  auto it = inner_of_outer_.find(a.name);
  if (it == inner_of_outer_.end()) {
    // An outer name that is itself the image of some inner name must not
    // also pass through (it would alias).
    PSC_CHECK(outer_of_inner_.find(a.name) == outer_of_inner_.end() ||
                  outer_of_inner_.at(a.name) == a.name,
              "action name " << a.name
                             << " is shadowed by the renaming map");
    return a;
  }
  Action r = a;
  r.name = it->second;
  return r;
}

Action RenamedMachine::to_outer(Action a) const {
  auto it = outer_of_inner_.find(a.name);
  if (it != outer_of_inner_.end()) a.name = it->second;
  return a;
}

void RenamedMachine::declare_signature(SignatureDecl& decl) const {
  for (const SignatureDecl::Entry& e : inner_->signature().entries()) {
    auto mapped = outer_of_inner_.find(e.name);
    decl.add(mapped == outer_of_inner_.end() ? e.name : mapped->second,
             e.node, e.peer, e.role);
  }
}

void RenamedMachine::apply_input(const Action& a, Time t) {
  inner_->apply_input(to_inner(a), t);
}

std::vector<Action> RenamedMachine::enabled(Time t) const {
  auto acts = inner_->enabled(t);
  std::vector<Action> out;
  out.reserve(acts.size());
  for (auto& a : acts) out.push_back(to_outer(std::move(a)));
  return out;
}

void RenamedMachine::apply_local(const Action& a, Time t) {
  inner_->apply_local(to_inner(a), t);
}

Time RenamedMachine::upper_bound(Time t) const {
  return inner_->upper_bound(t);
}

Time RenamedMachine::next_enabled(Time t) const {
  return inner_->next_enabled(t);
}

Time RenamedMachine::clock_reading(Time t) const {
  return inner_->clock_reading(t);
}

}  // namespace psc
