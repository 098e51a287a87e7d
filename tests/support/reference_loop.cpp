#include "support/reference_loop.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace psc {

// Friend of Executor: drives an assembled executor's machines, adversary
// RNG, probes and trace directly.
class ReferenceLoop {
 public:
  explicit ReferenceLoop(Executor& exec) : x_(exec) {}

  ExecutorReport run() {
    PSC_CHECK(x_.flight_ == nullptr && x_.prof_ == nullptr,
              "the reference loop feeds no flight recorder or profiler");
    x_.begin_run();
    while (x_.steps_ < x_.options_.max_events) {
      if (x_.stop_when_ && x_.stop_when_()) break;
      std::vector<Candidate> candidates = gather_enabled();
      if (!candidates.empty()) {
        const std::size_t pick = candidates.size() == 1
                                     ? 0
                                     : x_.rng_.index(candidates.size());
        execute(candidates[pick]);
        continue;
      }
      if (!advance_time()) break;
    }
    return x_.end_run();
  }

 private:
  struct Candidate {
    std::size_t machine;
    Action action;
  };

  // Every machine's enabled() list, concatenated in add() order.
  std::vector<Candidate> gather_enabled() const {
    std::vector<Candidate> out;
    for (std::size_t m = 0; m < x_.machines_.size(); ++m) {
      for (Action& a : x_.machines_[m]->enabled(x_.now_)) {
        out.push_back({m, std::move(a)});
      }
    }
    return out;
  }

  void execute(Candidate& c) {
    name_message(c.action, x_.next_msg_uid_);
    Machine* owner = x_.machines_[c.machine];
    const ActionRole role = owner->classify(c.action);
    PSC_CHECK(role == ActionRole::kOutput || role == ActionRole::kInternal,
              "machine " << owner->name() << " enabled non-local action "
                         << to_string(c.action));
    owner->apply_local(c.action, x_.now_);
    if (role == ActionRole::kOutput) {
      for (std::size_t m = 0; m < x_.machines_.size(); ++m) {
        if (m == c.machine) continue;
        Machine* other = x_.machines_[m];
        const ActionRole r = other->classify(c.action);
        PSC_CHECK(r != ActionRole::kOutput && r != ActionRole::kInternal,
                  "action " << to_string(c.action)
                            << " is locally controlled by both "
                            << owner->name() << " and " << other->name()
                            << " (incompatible composition)");
        if (r == ActionRole::kInput) other->apply_input(c.action, x_.now_);
      }
    }
    if (x_.sink_events_) {
      TimedEvent ev;
      ev.action = std::move(c.action);
      x_.record_event(ev, c.machine, role,
                      x_.hidden_.find(ev.action.name) == x_.hidden_.end());
    }
    ++x_.steps_;
    ++x_.stats_.events;
  }

  // Returns false when no further progress is possible before the horizon.
  bool advance_time() {
    Time next = kTimeMax;
    Time ub = kTimeMax;
    for (const Machine* m : x_.machines_) {
      const Time ne = m->next_enabled(x_.now_);
      PSC_CHECK(ne > x_.now_ || ne == kTimeMax,
                "machine " << m->name() << " reported next_enabled "
                           << format_time(ne) << " not after now "
                           << format_time(x_.now_));
      next = std::min(next, ne);
      const Time b = m->upper_bound(x_.now_);
      PSC_CHECK(b >= x_.now_, "machine " << m->name()
                                         << " upper_bound in the past: "
                                         << format_time(b) << " < "
                                         << format_time(x_.now_));
      ub = std::min(ub, b);
    }
    if (next >= kTimeMax) {
      x_.quiesced_ = true;
      return false;  // nothing will ever enable again
    }
    if (next > x_.options_.horizon) {
      return false;  // future work exists but lies beyond the horizon
    }
    PSC_CHECK(next <= ub,
              "time deadlock: next enabling at "
                  << format_time(next) << " but an upper bound stops time at "
                  << format_time(ub));
    const Time prev = x_.now_;
    x_.now_ = next;
    ++x_.stats_.time_advances;
    if (x_.now_ >= x_.time_probe_wake_) x_.notify_time_probes(prev);
    return true;
  }

  Executor& x_;
};

ExecutorReport run_reference(Executor& exec) {
  return ReferenceLoop(exec).run();
}

}  // namespace psc
