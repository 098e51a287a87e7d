// MachineFuzzer: a generic property-test driver for executable automata.
//
// Drives a single Machine through a pseudo-random schedule of its own
// locally controlled actions, user-supplied input generators, and time
// passage, while checking the executable analogues of the model axioms:
//
//   A1  enabled() actions classify as output/internal (never input/foreign);
//   A2  upper_bound(t) >= t — a machine cannot retract the present;
//   A3  next_enabled(t) > t or kTimeMax;
//   A4  progress consistency: if next_enabled promises an enabling time
//       that lies at or before upper_bound, something is actually enabled
//       when time reaches it (no false promises that would deadlock the
//       executor);
//   A5  apply_local never throws for an action the machine itself offered;
//   A6  input-enabledness: apply_input accepts any action classified kInput;
//   A7  an input the machine reports inert (Machine::last_input_inert)
//       leaves enabled, next_enabled and upper_bound unchanged.
//
// Corresponds to axioms S1-S5 of Def 2.1 in spirit: S2/S3 are structural in
// the harness (actions do not move time; time moves forward), S4/S5 hold
// because bounds are pointwise, so what remains checkable is the machine's
// contract with the executor — which is exactly what the fuzzer exercises.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "runtime/script.hpp"
#include "util/rng.hpp"

namespace psc {

struct FuzzReport {
  std::size_t actions_executed = 0;
  std::size_t inputs_injected = 0;
  std::size_t inert_inputs = 0;  // inputs reported inert (checked by A7)
  std::size_t time_advances = 0;
  Time end_time = 0;
};

class MachineFuzzer {
 public:
  // `input_gen` (optional) produces a random input action for time t, or
  // returns std::nullopt to skip. Inputs returned must satisfy
  // classify == kInput (checked).
  using InputGen = std::function<std::optional<Action>(Time, Rng&)>;

  MachineFuzzer(Machine& machine, std::uint64_t seed);

  void set_input_generator(InputGen gen) { input_gen_ = std::move(gen); }
  // Probability of injecting an input at each step (default 0.3).
  void set_input_probability(double p) { input_prob_ = p; }
  // Largest random time jump attempted (default 1ms).
  void set_max_jump(Duration d) { max_jump_ = d; }

  // Runs `steps` schedule decisions; throws CheckError on any axiom
  // violation with a diagnostic.
  FuzzReport run(std::size_t steps);

 private:
  Machine& machine_;
  Rng rng_;
  InputGen input_gen_;
  double input_prob_ = 0.3;
  Duration max_jump_ = 1'000'000;
  Time now_ = 0;
};

// --- generated machines ----------------------------------------------------
//
// Random *declared* environment machines for property tests: a scripted
// emitter whose schedule is drawn from the rng and whose accepted kinds are
// registered through ScriptMachine::accept_kind.
struct GeneratedMachineOptions {
  int node = 0;
  // Output kind names the schedule draws from (at least one required).
  std::vector<std::string> emit_kinds = {"GEN_A", "GEN_B"};
  // Foreign kinds the machine inputs at `node` (declared, not probed).
  std::vector<std::string> accept_kinds;
  // Schedule length range (inclusive) and the largest gap between steps.
  std::size_t min_steps = 1;
  std::size_t max_steps = 8;
  Duration max_gap = 200'000;
};

std::unique_ptr<ScriptMachine> make_generated_machine(
    Rng& rng, const GeneratedMachineOptions& opts = {});

}  // namespace psc
