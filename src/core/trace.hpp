// Timed schedules and timed traces (Section 2.1 of the paper).
//
// An execution's timed schedule is the sequence of (action, now) pairs for
// non-time-passage actions; the timed trace keeps only visible actions. We
// record richer events (owner machine, the owner's clock value when it has
// one, visibility after hiding) and derive schedules/traces by projection.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "core/time.hpp"

namespace psc {

struct TimedEvent {
  Action action;
  Time time = 0;            // `now` when the action occurred
  Time clock = kNoClockTag; // owner's clock value, if the owner is clocked
  int owner = -1;           // index of the machine that controlled the action
  bool visible = true;      // false once hidden (output reclassified internal)
  // The executor's interned id for action's (name, node, peer) kind, when
  // the event came off the interned scheduler path; kNoKind otherwise (the
  // test-side reference loop, or events built by hand in tests). Ids are local
  // to one executor run — consumers must treat this as a per-run cache key,
  // never as a stable identity across runs.
  ActionKindId kind = kNoKind;
};

using TimedTrace = std::vector<TimedEvent>;

// t-trace: visible events only.
TimedTrace visible_trace(const TimedTrace& events);

// Projection onto events satisfying `keep` (timed-sequence projection |).
TimedTrace project(const TimedTrace& events,
                   const std::function<bool(const TimedEvent&)>& keep);

// Projection onto a node: all events whose action carries that node id.
TimedTrace project_node(const TimedTrace& events, int node);

// Projection onto an action name.
TimedTrace project_name(const TimedTrace& events, const std::string& name);

// Replace each event's time with its clock value (the gamma'_alpha
// construction of Def 4.2). Events without a clock are dropped.
TimedTrace retime_by_clock(const TimedTrace& events);

// Stable sort by time (the reordering step of Def 4.2: nondecreasing time,
// original order among equal times).
TimedTrace stable_sort_by_time(TimedTrace events);

// True iff times are nondecreasing.
bool is_time_ordered(const TimedTrace& events);

// ltime of a finite trace: max event time (0 if empty).
Time ltime(const TimedTrace& events);

// The Lemma 4.3 / Section 5.3 output-rate measurement: the largest number
// of events in `events` within any half-open time window of length
// `window` (sliding over event times). The MMT transformation requires at
// most k outputs per clock window of length k*ell; this measures the k a
// given execution actually exhibits.
std::size_t max_events_in_window(const TimedTrace& events, Duration window);

std::string to_string(const TimedTrace& events);

}  // namespace psc
