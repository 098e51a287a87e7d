// Probe: the executor's observer interface.
//
// The paper's central objects are quantitative — clock skew within eps
// (predicate C_eps, Def 2.5), channel delivery inside [d1, d2] (Figure 1),
// Simulation 1's buffering delay (Figure 2) — but an execution's TimedTrace
// alone cannot answer "how close did this run get to the bound?". A Probe is
// notified synchronously on every executed event and every time-passage
// step, so it can measure those quantities *as the run unfolds* without the
// executor knowing what is being measured.
//
// This header is intentionally dependency-light (core types only) so the
// runtime can include it without linking the obs library; the built-in
// probes and exporters live in psc_obs (metrics.hpp, probes.hpp,
// trace_export.hpp). With no probes attached the executor's hot path pays a
// single empty-vector branch per event — observability is strictly opt-in.
#pragma once

#include <string_view>

#include "core/time.hpp"
#include "core/trace.hpp"

namespace psc {

class Machine;

class Probe {
 public:
  Probe() = default;
  virtual ~Probe() = default;

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  // Attribution label for the executor microprofiler (obs/prof.hpp), read
  // once per Executor::run(): probes answering "lint" get their on_event
  // time booked to the profiler's lint phase, everything else to the
  // generic probe phase. Purely a reporting refinement — the dispatch
  // itself is identical either way.
  virtual std::string_view profile_name() const { return "probe"; }

  // Dispatch hints, read once per Executor::run(): a probe that never
  // overrides on_event (resp. on_time_advance) returns false so the
  // executor's per-event (resp. per-advance) loop skips the virtual call
  // to the empty default entirely. Purely an optimization — returning
  // true and ignoring the callback is always correct.
  virtual bool observes_events() const { return true; }
  virtual bool observes_time() const { return true; }

  // Earliest time this probe needs its next on_time_advance, re-read after
  // every delivered advance. The default (0, i.e. "immediately") delivers
  // every time-passage step. A cadence-driven probe (ProfCounterProbe,
  // obs/prof.hpp) returns its next sample boundary instead, and the
  // executor skips the virtual dispatch for the advances in between — the
  // probe then sees only the advance that crosses the boundary, which is
  // the only one it would have acted on anyway.
  virtual Time next_time_interest() const { return 0; }

  // Called once when Executor::run() starts (now = current time, usually 0).
  virtual void on_run_begin(Time /*now*/) {}

  // Called after every executed event, with the event fully populated
  // (time, owner index, owner clock reading, post-hiding visibility) even
  // when ExecutorOptions.record_events is false. `owner` is the machine
  // that controlled the action.
  virtual void on_event(const TimedEvent& /*e*/, const Machine& /*owner*/) {}

  // Called after every time-passage step (nu): time jumped from -> to.
  virtual void on_time_advance(Time /*from*/, Time /*to*/) {}

  // Called once when Executor::run() returns (horizon, quiescence, cap, or
  // stop_when). A probe attached across several runs sees matching
  // begin/end pairs.
  virtual void on_run_end(Time /*now*/) {}
};

}  // namespace psc
