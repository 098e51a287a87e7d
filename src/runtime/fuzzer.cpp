#include "runtime/fuzzer.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

MachineFuzzer::MachineFuzzer(Machine& machine, std::uint64_t seed)
    : machine_(machine), rng_(seed), stuff_rng_(seed ^ 0xa8a8a8a8ULL) {}

void MachineFuzzer::poll_recycled(FuzzReport& report) {
  const std::vector<Action> fresh = machine_.enabled(now_);
  if (cands_.empty() && cands_.retained() > 0 && !fresh.empty()) {
    ++report.recycled_refills;
  }
  if (stuff_rng_.flip(0.5)) {
    // Every retained Action, and one past the poll, goes stale with a named
    // message and args, so no field of a reused slot is left to chance.
    Action stale = stale_;
    if (!stale.msg) {
      stale.msg = make_message("STALE", {Value{std::string("stale")}});
    }
    if (stale.msg->uid == 0) stale.msg->uid = ~std::uint64_t{0};
    if (stale.args.empty()) stale.args.emplace_back(std::int64_t{-1});
    const std::size_t fill = std::max(cands_.retained(), fresh.size() + 1);
    cands_.clear();
    for (std::size_t k = 0; k < fill; ++k) cands_.push_back(stale);
    cands_.clear();
  } else {
    // As execute_fast leaves it: the front holds the last event's action.
    if (cands_.retained() == 0) {
      cands_.push_back(Action{});
      cands_.clear();
    }
    swap(stale_, cands_[0]);
  }
  machine_.enabled_into(now_, cands_);
  std::size_t k = 0;
  while (k < fresh.size() && k < cands_.size() && cands_[k] == fresh[k]) {
    ++k;
  }
  const auto show = [k](const Action* begin, const Action* end) {
    return begin + k < end ? to_string(begin[k]) : std::string("nothing");
  };
  PSC_CHECK(k == fresh.size() && k == cands_.size(),
            machine_.name() << ": at " << format_time(now_)
                            << " enabled_into on a recycled list gives "
                            << show(cands_.begin(), cands_.end())
                            << " as candidate " << k
                            << ", a fresh list gives "
                            << show(fresh.data(), fresh.data() + fresh.size()));
}

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
        name_message(*a, next_uid_);
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
        stale_ = std::move(*a);
        continue;
      }
    }

    // Execute an enabled action, if any, from the recycled buffer as the
    // executor does.
    poll_recycled(report);
    if (!cands_.empty()) {
      swap(stale_, cands_[rng_.index(cands_.size())]);
      name_message(stale_, next_uid_);
      const Action& a = stale_;
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
