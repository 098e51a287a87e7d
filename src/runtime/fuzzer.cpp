#include "runtime/fuzzer.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

MachineFuzzer::MachineFuzzer(Machine& machine, std::uint64_t seed)
    : machine_(machine), rng_(seed) {}

FuzzReport MachineFuzzer::run(std::size_t steps) {
  FuzzReport report;
  for (std::size_t s = 0; s < steps; ++s) {
    // A2 / A3.
    const Time ub = machine_.upper_bound(now_);
    PSC_CHECK(ub >= now_, machine_.name()
                              << ": upper_bound " << format_time(ub)
                              << " < now " << format_time(now_));
    const Time ne = machine_.next_enabled(now_);
    PSC_CHECK(ne > now_ || ne == kTimeMax,
              machine_.name() << ": next_enabled " << format_time(ne)
                              << " <= now " << format_time(now_));

    // Maybe inject an input.
    if (input_gen_ && rng_.flip(input_prob_)) {
      if (auto a = input_gen_(now_, rng_)) {
        PSC_CHECK(machine_.classify(*a) == ActionRole::kInput,
                  machine_.name() << ": generated input " << to_string(*a)
                                  << " not classified kInput");
        const std::vector<Action> before = machine_.enabled(now_);
        machine_.apply_input(*a, now_);  // A6: must not throw
        ++report.inputs_injected;
        if (machine_.last_input_inert()) {
          // A7: the executor skips the re-poll of an inert input.
          ++report.inert_inputs;
          PSC_CHECK(machine_.enabled(now_) == before &&
                        machine_.next_enabled(now_) == ne &&
                        machine_.upper_bound(now_) == ub,
                    machine_.name() << ": input " << to_string(*a)
                                    << " reported inert but changed "
                                       "enabled, next_enabled or "
                                       "upper_bound at "
                                    << format_time(now_));
        }
        continue;
      }
    }

    // Execute an enabled action, if any.
    auto acts = machine_.enabled(now_);
    if (!acts.empty()) {
      const auto& a = acts[rng_.index(acts.size())];
      const ActionRole role = machine_.classify(a);
      PSC_CHECK(role == ActionRole::kOutput || role == ActionRole::kInternal,
                machine_.name() << ": enabled action " << to_string(a)
                                << " classified " << to_string(role));
      machine_.apply_local(a, now_);  // A5
      ++report.actions_executed;
      continue;
    }

    // Nothing enabled: advance time like the executor would.
    Time target;
    if (ne != kTimeMax) {
      // A4: the promise must be executable — time may advance to ne.
      PSC_CHECK(ne <= machine_.upper_bound(now_),
                machine_.name() << ": next_enabled " << format_time(ne)
                                << " beyond upper_bound "
                                << format_time(machine_.upper_bound(now_))
                                << " — executor deadlock");
      target = ne;
    } else {
      // Free jump, bounded by the machine's nu-precondition.
      const Time jump = now_ + rng_.uniform(1, max_jump_);
      target = std::min(jump, machine_.upper_bound(now_));
      if (target <= now_) {
        // Machine pins time but enables nothing and promises nothing: with
        // no inputs pending this is a deadlock unless an input could help;
        // tolerate when an input generator exists (environment may move
        // things along), otherwise fail.
        PSC_CHECK(input_gen_ != nullptr,
                  machine_.name() << ": time pinned at " << format_time(now_)
                                  << " with nothing enabled and nothing "
                                     "promised");
        continue;
      }
    }
    now_ = target;
    ++report.time_advances;

    if (ne != kTimeMax && ne == now_) {
      // A4 second half: at the promised time something must be enabled
      // (the executor re-queries; a no-show loops forever).
      PSC_CHECK(!machine_.enabled(now_).empty(),
                machine_.name() << ": next_enabled promised "
                                << format_time(ne)
                                << " but nothing is enabled there");
    }
  }
  report.end_time = now_;
  return report;
}

std::unique_ptr<ScriptMachine> make_generated_machine(
    Rng& rng, const GeneratedMachineOptions& opts) {
  PSC_CHECK(!opts.emit_kinds.empty(), "generated machine needs emit kinds");
  PSC_CHECK(opts.min_steps <= opts.max_steps, "generated step range");
  const std::size_t count =
      opts.min_steps +
      static_cast<std::size_t>(
          rng.uniform(0, static_cast<Duration>(opts.max_steps -
                                               opts.min_steps)));
  std::vector<ScriptMachine::Step> steps;
  Time at = 0;
  for (std::size_t k = 0; k < count; ++k) {
    at += rng.uniform(1, opts.max_gap);
    const auto& kind = opts.emit_kinds[rng.index(opts.emit_kinds.size())];
    steps.push_back({at, make_action(kind, opts.node)});
  }
  auto m = std::make_unique<ScriptMachine>(
      "gen_" + std::to_string(opts.node), std::move(steps));
  for (const auto& kind : opts.accept_kinds) m->accept_kind(kind, opts.node);
  return m;
}

}  // namespace psc
