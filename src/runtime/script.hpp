// ScriptMachine: a deterministic environment automaton.
//
// Emits a fixed schedule of output actions at fixed times (urgently — the
// nu-precondition stops time at the next scripted emission) and records
// every input it is wired to accept. Used as the environment in tests and
// as a building block for workload drivers.
#pragma once

#include <vector>

#include "core/machine.hpp"
#include "core/trace.hpp"

namespace psc {

class ScriptMachine final : public Machine {
 public:
  struct Step {
    Time at;
    Action action;
  };

  // A pure emitter until accept_kind adds inputs. Steps must be sorted by
  // time.
  ScriptMachine(std::string name, std::vector<Step> steps);

  // Declares a foreign kind this machine inputs (recorded into received()).
  // Call before the machine is added to an executor.
  void accept_kind(std::string name, int node = kAnyNode, int peer = kAnyNode);

  const TimedTrace& received() const { return received_; }
  std::size_t emitted() const { return next_; }
  bool done() const { return next_ >= steps_.size(); }

  // The distinct scripted output kinds plus every accept_kind.
  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time t) override;
  std::vector<Action> enabled(Time t) const override;
  void apply_local(const Action& a, Time t) override;
  Time upper_bound(Time t) const override;
  Time next_enabled(Time t) const override;

 private:
  std::vector<Step> steps_;
  std::vector<SignatureDecl::Entry> accept_kinds_;
  std::size_t next_ = 0;
  TimedTrace received_;
};

}  // namespace psc
