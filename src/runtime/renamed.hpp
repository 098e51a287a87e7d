// The renaming operator for executable automata (Section 2.1 mentions
// hiding and renaming as the two signature operators; hiding lives in the
// Executor/CompositeMachine, renaming here).
//
// RenamedMachine applies a bijective action-name mapping at the boundary of
// a wrapped machine: inbound actions are translated to the inner names
// before classify/apply, outbound enabled actions are translated to the
// outer names. The clock-model channels (ESENDMSG/ERECVMSG vs
// SENDMSG/RECVMSG) are an instance of this construction, inlined there for
// convenience; RenamedMachine makes the operator available for user
// algorithms (e.g. running two independent instances of one algorithm side
// by side).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/machine.hpp"

namespace psc {

class RenamedMachine final : public Machine {
 public:
  // `outer_of_inner` maps inner action names to outer ones; names absent
  // from the map pass through unchanged. The mapping must be injective on
  // the names that occur (checked lazily on use).
  RenamedMachine(std::unique_ptr<Machine> inner,
                 std::map<std::string, std::string> outer_of_inner);

  Machine& inner() { return *inner_; }

  // The inner declaration with entry names translated to the outer names.
  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time t) override;
  void enabled_into(Time t, Candidates& out) const override;
  void apply_local(const Action& a, Time t) override;
  Time upper_bound(Time t) const override;
  Time next_enabled(Time t) const override;
  Time clock_reading(Time t) const override;

  std::size_t member_count() const override { return 1; }
  const Machine* member_at(std::size_t idx) const override {
    return idx == 0 ? inner_.get() : nullptr;
  }

 private:
  Action to_inner(const Action& a) const;

  std::unique_ptr<Machine> inner_;
  std::unordered_map<ActionName, ActionName> outer_of_inner_;
  std::unordered_map<ActionName, ActionName> inner_of_outer_;
};

}  // namespace psc
