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
//
// The members are the composite's parts (Machine::part_count): the
// executor polls, caches and wakes each member separately, and
// apply_input/apply_local record every member they change — the owner of a
// local action and each member it is routed to — for take_touched_parts.
// So one message into one buffer of a Simulation 1 node re-polls that
// buffer, not all 2n+1 members. enabled/next_enabled/upper_bound still walk
// every member for callers that drive the composite as one machine (the
// executor's reference scan and MmtNode's Def 5.1 catch-up).
#pragma once

#include <cstdint>
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

  // Merges the members' declarations under composition + hiding semantics:
  // member-local entries become composite outputs, or internals when
  // hidden, and member inputs stay inputs. Throws CheckError when two
  // members' local entries can match a common kind (Def 2.2).
  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time t) override;
  std::vector<Action> enabled(Time t) const override;
  void apply_local(const Action& a, Time t) override;
  Time upper_bound(Time t) const override;
  Time next_enabled(Time t) const override;

  // Parts are members, in add order.
  std::size_t part_count() const override { return members_.size(); }
  void part_enabled_into(std::size_t part, Time t,
                         std::vector<Action>& out) const override {
    members_[part]->enabled_into(t, out);
  }
  Time part_next_enabled(std::size_t part, Time t) const override {
    return members_[part]->next_enabled(t);
  }
  Time part_upper_bound(std::size_t part, Time t) const override {
    return members_[part]->upper_bound(t);
  }
  void take_touched_parts(std::vector<std::uint32_t>& out) override;

  std::size_t member_count() const override { return members_.size(); }
  const Machine* member_at(std::size_t idx) const override {
    return idx < members_.size() ? members_[idx].get() : nullptr;
  }

 private:
  // Routes an already-applied local action of member `owner` to other
  // members that input it.
  void route_internally(std::size_t owner, const Action& a, Time t);
  // Records that member `idx` changed state, once until the next drain.
  void touch(std::size_t idx) {
    if (!touched_flag_[idx]) {
      touched_flag_[idx] = 1;
      touched_.push_back(static_cast<std::uint32_t>(idx));
    }
  }

  std::vector<std::unique_ptr<Machine>> members_;
  std::unordered_set<std::string> hidden_;
  // Members changed since the last take_touched_parts, each once (the flag
  // dedups), so the record stays bounded by the member count even when no
  // executor drains it, as inside MmtNode.
  std::vector<std::uint32_t> touched_;
  std::vector<char> touched_flag_;
};

}  // namespace psc
