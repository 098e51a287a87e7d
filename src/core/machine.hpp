// The executable automaton interface.
//
// The paper's timed automata (Def 2.1) are infinite-state transition systems
// with a time-passage action nu. We execute them in the standard IOA
// precondition/effect style: a Machine exposes its input effects, its
// currently-enabled locally controlled actions, and two *time bounds* that
// encode the nu-preconditions:
//
//   upper_bound(t):  the largest t' to which time may advance from t without
//                    violating any nu-precondition (urgency / axiom S5
//                    intermediate states exist because all our bounds are
//                    pointwise);
//   next_enabled(t): the earliest t' > t at which some locally controlled
//                    action (not enabled at t) becomes enabled — a
//                    discrete-event hint that lets the executor jump.
//
// The same interface serves all three models. Whether the `t` parameter is
// real time (`now`), a node-local clock value, or a simulated clock inside
// the MMT transformation is decided by the runtime adapter driving the
// machine — this makes epsilon-time independence (Def 2.6) structural: a
// clock-model machine simply never sees `now`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "core/time.hpp"

namespace psc {

enum class ActionRole {
  kInput,     // in(A): environment-controlled, always accepted
  kOutput,    // out(A): locally controlled, visible
  kInternal,  // int(A): locally controlled, hidden
  kNotMine,   // not in acts(A)
};

const char* to_string(ActionRole role);

// A machine's action signature sig(A) = (in, out, int) (Def 2.1), declared
// per *kind* (name, node, peer). A kAnyNode node/peer matches any value of
// that field. The declaration is the machine's one description of its
// signature: Machine::classify() is derived from it, and the executor
// interns it into its routing index.
class SignatureDecl {
 public:
  struct Entry {
    std::string name;
    int node = kAnyNode;
    int peer = kAnyNode;
    ActionRole role = ActionRole::kNotMine;

    // Whether `a` is of a kind this entry matches. The int fields are
    // compared first, so most misses cost no string compare.
    bool matches(const Action& a) const {
      return (node == kAnyNode || node == a.node) &&
             (peer == kAnyNode || peer == a.peer) && name == a.name;
    }
    // Whether some action kind is matched by both entries.
    bool overlaps(const Entry& o) const {
      return name == o.name &&
             (node == kAnyNode || o.node == kAnyNode || node == o.node) &&
             (peer == kAnyNode || o.peer == kAnyNode || peer == o.peer);
    }
    // Whether every kind `o` matches is matched by this entry too.
    bool covers(const Entry& o) const {
      return name == o.name && (node == kAnyNode || node == o.node) &&
             (peer == kAnyNode || peer == o.peer);
    }
  };

  void input(std::string name, int node = kAnyNode, int peer = kAnyNode);
  void output(std::string name, int node = kAnyNode, int peer = kAnyNode);
  void internal(std::string name, int node = kAnyNode, int peer = kAnyNode);
  void add(std::string name, int node, int peer, ActionRole role);

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// Model-level facts about a machine that the composition linter
// (analysis/lint.hpp) cannot learn from the signature alone. Adapters that
// reinterpret time report themselves here so the linter can walk a machine
// tree and check the clock-model contracts without knowing the concrete
// adapter types.
struct ModelTraits {
  // Drives its members with clock values instead of real time (the C(A,eps)
  // adapter of Def 4.1, or the MMT wrapper M(A,ell) of Def 5.1). Members of
  // a clock adapter live in the clock model.
  bool clock_adapter = false;
  // The eps of the C_eps envelope (Def 2.5) this machine observes its clock
  // through; negative when the machine carries no clock. All clocks of one
  // system must share one eps (the predicate C_eps is system-wide).
  Duration clock_eps = -1;
  // The machine's transitions read real time (`now`) directly. Harmless in
  // the timed model; under a clock adapter it breaks epsilon-time
  // independence (Def 2.6) and voids the simulation theorems.
  bool reads_real_time = false;
  // The machine is a relay with the Figure 1 channel contract: every
  // accepted input is re-emitted as an output after a delay guaranteed to
  // lie in [relay_d1, relay_d2]. relay_d2 < 0 means "not a relay". The
  // bound-certificate analyzer (analysis/bounds.hpp) harvests these to
  // derive per-hop delivery windows, and the shard synthesizer uses
  // relay_d1 as the edge's lookahead.
  Duration relay_d1 = -1;
  Duration relay_d2 = -1;
  // Upper bound on the gap between this machine's enabled locally
  // controlled steps — the MMT boundmap [0, ell] of Def 5.1. Negative when
  // the machine promises no step bound.
  Duration step_ell = -1;
};

class Machine {
 public:
  explicit Machine(std::string name) : name_(std::move(name)) {}
  virtual ~Machine() = default;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const std::string& name() const { return name_; }

  // Appends the machine's signature to `decl`. signature() calls it once
  // and caches the result; a machine whose signature grows after that
  // (composite add/hide, ScriptMachine::accept_kind) calls
  // reset_signature(). Callers that copy the entries anyway (the executor's
  // routing index, lint) call it directly. Declare only once the machine is
  // fully assembled.
  virtual void declare_signature(SignatureDecl& decl) const = 0;

  // The cached declaration. Inline, like classify(): composites classify
  // per member on every action they route.
  const SignatureDecl& signature() const {
    return signature_ ? *signature_ : declare_and_cache();
  }

  // Membership of `a` in the machine's action signature, derived from the
  // declaration: the role of a matching entry, a locally controlled entry
  // beating an input one, or kNotMine when no entry matches.
  ActionRole classify(const Action& a) const {
    ActionRole role = ActionRole::kNotMine;
    for (const SignatureDecl::Entry& e : signature().entries()) {
      if (!e.matches(a)) continue;
      if (e.role != ActionRole::kInput) return e.role;
      role = ActionRole::kInput;
    }
    return role;
  }

  // Input effect (input-enabled: must accept any action classified kInput).
  virtual void apply_input(const Action& a, Time t) = 0;

  // True when the last apply_input was *inert*: it changed nothing that
  // enabled_into, next_enabled, upper_bound or any part_* query reads, so
  // their results at every t are what they were before it (an inert input
  // touches no part). Non-virtual, like clocked(): the executor reads it
  // after each input it fans out and skips the re-poll. A machine that
  // never calls set_last_input_inert() reports false, so every input it
  // receives is re-polled. MachineFuzzer's axiom A7 checks the claim.
  bool last_input_inert() const { return last_input_inert_; }

  // Locally controlled actions whose preconditions hold at time t.
  virtual std::vector<Action> enabled(Time t) const = 0;

  // Allocation-aware variant: overwrite `out` with exactly what enabled(t)
  // would return. The executor re-polls through this so machines can recycle
  // the candidate buffer's heap blocks (strings, arg vectors, message
  // fields) across polls instead of rebuilding them — the scheduler's
  // steady state then performs no malloc/free per event. The default
  // forwards to enabled(); overriders must produce the identical sequence
  // (the adversary's pick order depends on it).
  virtual void enabled_into(Time t, std::vector<Action>& out) const {
    out = enabled(t);
  }

  // Effect of a locally controlled action previously reported by enabled().
  virtual void apply_local(const Action& a, Time t) = 0;

  // nu-precondition: largest time to which time-passage is allowed.
  // Must be >= t (a machine cannot retract the present).
  virtual Time upper_bound(Time /*t*/) const { return kTimeMax; }

  // Earliest strictly-future time at which a currently-disabled local action
  // becomes enabled, or kTimeMax. Purely an efficiency hint; the executor
  // re-queries enabled() after advancing.
  virtual Time next_enabled(Time /*t*/) const { return kTimeMax; }

  // Parts: a machine assembled from independent members that share its time
  // parameter (a CompositeMachine) may expose them as parts, so the
  // executor caches, dirty-marks and wakes each part on its own while the
  // machine stays the unit of composition. A machine with P > 1 parts
  // promises, for every t:
  //   enabled(t)      == the parts' part_enabled_into(p, t) lists
  //                      concatenated in ascending p;
  //   next_enabled(t) == min over p of part_next_enabled(p, t);
  //   upper_bound(t)  == min over p of part_upper_bound(p, t);
  // and that a part's state changes only inside apply_input/apply_local,
  // which record it for take_touched_parts. part_count() must be stable
  // once the machine is added to an executor. The executor calls the part_*
  // methods only on machines with more than one part.
  virtual std::size_t part_count() const { return 1; }
  virtual void part_enabled_into(std::size_t /*part*/, Time t,
                                 std::vector<Action>& out) const {
    enabled_into(t, out);
  }
  virtual Time part_next_enabled(std::size_t /*part*/, Time t) const {
    return next_enabled(t);
  }
  virtual Time part_upper_bound(std::size_t /*part*/, Time t) const {
    return upper_bound(t);
  }
  // Appends each part changed by apply_input/apply_local since the last
  // call, once, and forgets them. Between calls the record holds at most
  // part_count() entries, so a caller that never drains it pays nothing
  // unbounded.
  virtual void take_touched_parts(std::vector<std::uint32_t>& /*out*/) {}

  // The machine's clock reading at real time t, if it is driven by a clock
  // (clock/MMT models); kNoClockTag otherwise. Used for trace metadata (the
  // c_i(alpha) values of Section 4.3) — never for transition decisions.
  //
  // Overriders MUST also call set_clocked(true) in their constructor (a
  // wrapper forwards its inner machine's flag): the executor consults the
  // non-virtual clocked() on its per-event path and only pays the virtual
  // clock_reading call for machines that declare a clock — an unclocked
  // machine's events read kNoClockTag either way.
  virtual Time clock_reading(Time /*t*/) const { return kNoClockTag; }
  bool clocked() const { return clocked_; }

  // Model-level self-description for the composition linter (see
  // ModelTraits). The default — no adapter, no clock, no real-time reads —
  // is right for plain algorithm machines.
  virtual ModelTraits model_traits() const { return {}; }

  // Structural traversal for analyses: wrappers and composites expose their
  // members so a linter can walk the machine tree without dynamic_casts.
  // Leaf machines report zero members.
  virtual std::size_t member_count() const { return 0; }
  virtual const Machine* member_at(std::size_t /*idx*/) const {
    return nullptr;
  }

 protected:
  // See clock_reading(): pair with overriding it.
  void set_clocked(bool v) { clocked_ = v; }
  // See last_input_inert(): an overrider of apply_input that uses it sets
  // it on every input, true or false.
  void set_last_input_inert(bool v) { last_input_inert_ = v; }
  // Drops the cached declaration; the next use re-declares.
  void reset_signature() { signature_.reset(); }

 private:
  const SignatureDecl& declare_and_cache() const;

  std::string name_;
  bool clocked_ = false;
  bool last_input_inert_ = false;
  mutable std::optional<SignatureDecl> signature_;
};

}  // namespace psc
