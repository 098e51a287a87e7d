// The Def 2.2 reference loop: the executor's composition run as a literal
// transcription of timed-automaton composition, which the wheel scheduler
// behind Executor::run() must match seed for seed (docs/EXECUTOR.md,
// "Equivalence"). Each iteration polls every whole machine with enabled(),
// picks one candidate with the executor's adversary RNG (the same draws as
// the wheel loop), routes it through every machine's classify(), and, when
// nothing is enabled, advances time by a min-scan over next_enabled /
// upper_bound. Probes see the same on_run_begin / on_event /
// on_time_advance / on_run_end sequence, and the event cap and lint gate
// behave as in run().
//
// It is O(machines) per event and lives here, not in the library: the
// equivalence tests and bench_executor's legacy column run it, and no
// option selects it in production.
#pragma once

#include "runtime/executor.hpp"

namespace psc {

// Runs `exec` — fully assembled, probes attached, not yet run — on the
// reference loop instead of Executor::run(). Afterwards exec.events(),
// exec.trace() and exec.stats() read as after run(); the stats carry only
// `events` and `time_advances`. Events carry no interned kind id, so the
// executor must have no flight recorder or profiler attached.
ExecutorReport run_reference(Executor& exec);

}  // namespace psc
