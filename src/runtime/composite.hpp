// CompositeMachine: composition + hiding packaged as a single Machine.
//
// Used to assemble a *node* out of parts that share one notion of time —
// exactly the clock-automaton composition of Def 2.7 (the clock is a global
// component of the composed automaton: every member is driven by the same
// time parameter the composite receives). The Section 4.2 node
//   A^c_{i,eps} = C(A_i,eps) x S_{ij,eps} x R_{ji,eps}  \ {SENDMSG, RECVMSG}
// is a CompositeMachine of three members with the two internal interfaces
// hidden.
//
// Actions hidden inside the composite are routed between members but
// reported as internal to the outside; all other member outputs are
// composite outputs (and are *also* routed internally if another member
// inputs them).
#pragma once

#include <memory>
#include <unordered_set>
#include <vector>

#include "core/machine.hpp"

namespace psc {

class CompositeMachine : public Machine {
 public:
  explicit CompositeMachine(std::string name);

  // Members are applied in the order added. The composite owns them.
  void add(std::unique_ptr<Machine> member);
  // Hide an action name inside the composite (output -> internal).
  void hide(const std::string& action_name);

  // Access to members for inspection in tests (index = add order).
  Machine& member(std::size_t idx);
  const Machine& member(std::size_t idx) const;
  std::size_t size() const { return members_.size(); }

  ActionRole classify(const Action& a) const override;
  // Merges the members' declarations under composition + hiding semantics
  // (member-local entries become composite outputs, or internals when
  // hidden). Opts out — returns false — when any member is undeclared or
  // when two members' local entries can match a common kind, so the
  // executor's classify() path keeps raising the double-local error exactly
  // as before.
  bool declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time t) override;
  std::vector<Action> enabled(Time t) const override;
  // enabled()'s sequence, member by member through each member's
  // enabled_into: `out` keeps its capacity across polls. enabled() stays
  // separate because MmtNode calls it on every step, where a fresh vector
  // filled through the scratch costs more than the member-by-member concat.
  void enabled_into(Time t, std::vector<Action>& out) const override;
  void apply_local(const Action& a, Time t) override;
  Time upper_bound(Time t) const override;
  Time next_enabled(Time t) const override;

  std::size_t member_count() const override { return members_.size(); }
  const Machine* member_at(std::size_t idx) const override {
    return idx < members_.size() ? members_[idx].get() : nullptr;
  }

 private:
  // Routes an already-applied local action of member `owner` to other
  // members that input it.
  void route_internally(std::size_t owner, const Action& a, Time t);

  std::vector<std::unique_ptr<Machine>> members_;
  std::unordered_set<std::string> hidden_;
  // One member's candidates during enabled_into, recycled across polls
  // (single-threaded: one executor owns the machine).
  mutable std::vector<Action> scratch_;
};

}  // namespace psc
