// The discrete-event executor: runs a composition of Machines.
//
// This realizes timed-automaton composition (Def 2.2) operationally:
//  * all machines share `now`;
//  * a locally controlled action of one machine is applied simultaneously
//    as an input to every machine whose signature contains it (axiom S2:
//    non-time actions do not advance now);
//  * time passes (nu) only when no machine has an enabled local action, by
//    the largest jump allowed by every machine's nu-precondition
//    (upper_bound) that reaches the next machine's next_enabled hint.
//
// Nondeterministic choice among simultaneously enabled actions is resolved
// by a seeded adversary (uniform random by default), so runs are
// reproducible and sweepable across seeds.
//
// Scheduling: the default inner loop is event-driven rather than scanning —
// a *dirty set* re-polls only the parts of machines whose state an event
// touched, a *wake calendar* (a hierarchical timing wheel over
// next_enabled/upper_bound hints; see runtime/wheel.hpp) replaces the
// per-advance O(machines) scan, and outputs are routed through a
// subscription index over interned action kinds instead of calling
// classify() on every machine. The unit of caching is a *slot*: one per
// part of a multi-part machine (Machine::part_count — a Simulation 1 node's
// members), one per other machine. Slots are numbered machine-ascending,
// part-ascending, so the flat candidate list is the reference loop's; the
// machine stays the unit of composition (event owners, probes,
// composition()).
// Per-slot state lives in parallel arrays (structure-of-arrays) sized once
// at add() time. Each slot's Candidates list keeps its Actions across
// polls and the picked one is swapped into the event, so actions cost no
// allocation per event and their names no string work; what still
// allocates is message state kept by the machines (in-flight records,
// queued messages). Measured per event inside run() on the MMT register
// workload: 0.07 heap allocations, and 0 with no operations in flight
// (tests/alloc_test.cpp; docs/EXECUTOR.md has the figures).
// Seed-for-seed the wheel loop produces byte-identical traces and probe
// sequences to the reference loop (tests/support/reference_loop.hpp), the
// literal Def 2.2 transcription that tests and bench_executor compare it
// against; no option selects it in production. See docs/EXECUTOR.md for
// the invalidation rules and the equivalence argument.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/meter.hpp"
#include "core/machine.hpp"
#include "core/trace.hpp"
#include "obs/probe.hpp"
#include "runtime/wheel.hpp"
#include "util/hier_bitset.hpp"
#include "util/rng.hpp"

namespace psc {

class FlightRecorder;
class Profiler;

struct ExecutorOptions {
  Time horizon = seconds(1);       // stop once now would exceed this
  std::uint64_t seed = 1;          // adversary seed (tie-breaking)
  std::size_t max_events = 10'000'000;  // runaway guard
  bool record_events = true;
  // Observers notified on every executed event and time-passage step
  // (non-owning; see obs/probe.hpp). Consumed at construction: the executor
  // stores a single probe list, shared with attach_probe(). With no probes
  // attached the per-event cost is one empty-vector branch, so the
  // uninstrumented hot path is unchanged.
  std::vector<Probe*> probes = {};
  // Lint the composition (src/analysis/lint.hpp) at the start of run() and
  // fail fast (PSC_CHECK) on any error-severity diagnostic.
  bool validate = false;
};

// Self-metrics of the calendar/dirty-set scheduler, maintained as plain
// counter increments on already-touched cache lines (no branches, no
// allocation — bench_executor's speedup gate doubles as the overhead
// regression test). The test-side reference loop fills only `events` and
// `time_advances`; everything else measures the incremental machinery.
struct ExecutorStats {
  std::uint64_t events = 0;         // executed actions
  std::uint64_t time_advances = 0;  // nu steps
  // Timing-wheel wake calendar; see runtime/wheel.hpp.
  WheelStats wheel;
  // Dirty set / per-slot candidate cache (a slot is one part of a machine;
  // see Executor). A flush re-polls exactly the dirty slots; every other
  // slot's cached candidate list is a hit.
  std::uint64_t dirty_flushes = 0;     // flushes that re-polled >= 1 slot
  std::uint64_t dirty_repolls = 0;     // slots re-polled (cache misses)
  std::uint64_t dirty_peak = 0;        // largest single flush
  std::uint64_t cand_cache_hits = 0;   // slots *not* re-polled at a flush
  // Interned-action routing.
  // Always 0: every machine declares its signature, so no event is routed
  // through classify(). Kept because psc_bench reports it; it goes with the
  // next benchmark-definition change (ROADMAP, "Housekeeping for the next
  // benchmark-definition PR").
  std::uint64_t route_classify = 0;
  std::uint64_t fanout_inputs = 0;   // inputs applied via the subscriber index
  std::uint64_t kind_hits = 0;       // executions served by a resolved kind
  std::uint64_t kind_resolves = 0;   // routing-info cache misses
  // Executions whose kind matched the last kind executed from the same
  // scheduler slot, skipping even the interning hash.
  std::uint64_t kind_memo_hits = 0;

  // Fraction of per-flush slot visits served from cache (1 = perfectly
  // incremental, 0 = every slot re-polled at every flush).
  double cache_hit_rate() const {
    const std::uint64_t total = cand_cache_hits + dirty_repolls;
    return total == 0 ? 0.0
                      : static_cast<double>(cand_cache_hits) /
                            static_cast<double>(total);
  }

  bool operator==(const ExecutorStats&) const = default;
};

struct ExecutorReport {
  Time end_time = 0;
  std::size_t steps = 0;
  bool quiesced = false;  // no machine had pending future work at the end
  // The run stopped because it executed max_events events. Only an error
  // (PSC_CHECK) when no stop_when predicate was registered — a system that
  // never quiesces on its own legitimately runs into the cap when its stop
  // condition and the cap race on the same iteration.
  bool hit_event_cap = false;
  // Scheduler self-metrics for the run (see ExecutorStats).
  ExecutorStats stats;
};

class Executor {
 public:
  explicit Executor(ExecutorOptions options = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Machines participate in the composition. Non-owning add is for machines
  // the caller wants to inspect after the run; owned machines are destroyed
  // with the executor. add() interns the machine's declared signature into
  // the routing index, so machines must be fully assembled —
  // composite members added, hides applied — before being added here.
  void add(Machine* machine);
  void add_owned(std::unique_ptr<Machine> machine);

  // Hiding operator: outputs with this action name are recorded as
  // invisible (they still drive inputs — hiding only reclassifies
  // output -> internal). Hiding a name no machine ever declares or emits is
  // a no-op.
  void hide(ActionName action_name);

  // Optional early-stop condition, checked between events. Needed for
  // systems that never quiesce on their own (the MMT model's tick/step
  // machinery fires every <= ell forever): stop once the workload is done.
  void stop_when(std::function<bool()> predicate);

  // Attaches an observability probe (in addition to any from
  // ExecutorOptions.probes — both land in the same list, so they cannot
  // drift apart). Non-owning; the probe must outlive the run.
  void attach_probe(Probe* probe);

  // Attaches (or, with nullptr, detaches) the always-on binary flight
  // recorder (obs/flight.hpp): every executed event is written as one
  // fixed-size POD into the recorder's ring, independently of record_events
  // and the probe list. Non-owning; must outlive the run. run() bind()s the
  // recorder to this executor instance so its per-executor kind memo resets
  // when a recorder is reused across runs.
  void attach_flight(FlightRecorder* flight);

  // Attaches (or, with nullptr, detaches) the sampling microprofiler
  // (obs/prof.hpp): the scheduler loop brackets its hot-loop phases with
  // cycle-counter reads on 1-in-N sampled iterations and attributes step
  // time per action kind / machine type. With no profiler attached the
  // per-iteration cost is one null-pointer test. Non-owning; must outlive
  // the run. run() bind()s the profiler to this executor instance so its
  // per-executor kind/machine memos reset when one profiler aggregates
  // several executors.
  void attach_profiler(Profiler* prof);

  // Lints the composition as assembled so far (all machines added, hides
  // applied) without running it; see src/analysis/lint.hpp for the codes.
  // run() calls this when ExecutorOptions::validate is set.
  DiagnosticReport validate_composition(const LintOptions& opts = {}) const;

  // Runs until the horizon, quiescence, the stop_when predicate, or the
  // event cap.
  ExecutorReport run();

  Time now() const { return now_; }
  const TimedTrace& events() const { return events_; }
  TimedTrace trace() const { return visible_trace(events_); }

  // The composition as assembled so far, in add() order — the machine list
  // the static analyses walk (validate_composition, interference graphs,
  // bound certificates). Rebuilt per call; not for hot paths.
  std::vector<const Machine*> composition() const {
    return {machines_.begin(), machines_.end()};
  }

  // Introspection for tests and benches.
  std::size_t machine_count() const { return machines_.size(); }
  std::size_t interned_kind_count() const { return kinds_.size(); }
  // Scheduler self-metrics so far (also returned in ExecutorReport::stats).
  const ExecutorStats& stats() const { return stats_; }
  // Wake calendar: entries held by the next_enabled and upper_bound wheels
  // (at most one per slot each), and whether slot `s` has one filed (never
  // while it has candidates).
  std::pair<std::size_t, std::size_t> wake_entries() const {
    return {ne_wheel_.size(), ub_wheel_.size()};
  }
  bool has_wake(std::size_t s) const {
    const auto slot = static_cast<std::uint32_t>(s);
    return ne_wheel_.linked(slot) || ub_wheel_.linked(slot);
  }

 private:
  // The Def 2.2 reference loop (tests/support/reference_loop.cpp) drives
  // an assembled executor's machines, probes and RNG directly.
  friend class ReferenceLoop;

  // --- interned action kinds and the subscription index -------------------

  // One record per declared signature entry. `seq` is the global
  // declaration order (add() order, then entry order within a machine):
  // buckets split by node are merged back in seq order at resolve time, so
  // routing lists come out exactly as a flat scan would have built them.
  struct DeclRecord {
    int node = kAnyNode;
    int peer = kAnyNode;
    ActionRole role = ActionRole::kNotMine;
    std::size_t machine = 0;
    std::uint64_t seq = 0;
  };

  // Declarations for one action name, split by declared node so resolving
  // a kind scans only the records that can match its node — with n nodes
  // declaring "RECVMSG", the flat per-name bucket made first-execution
  // resolution O(n) per kind and O(n^2) over a run's first wave.
  struct DeclBucket {
    std::vector<DeclRecord> any_node;  // entries declared with kAnyNode
    std::unordered_map<int, std::vector<DeclRecord>> by_node;
  };

  struct KindInfo {
    bool hidden = false;    // name was hide()-den: id test, not string hash
    bool resolved = false;  // routing lists below are populated
    // Machines locally controlling this kind (normally 0 or 1; two
    // claimants is the "incompatible composition" error, raised when an
    // output of this kind executes — same timing as the reference loop).
    std::vector<std::pair<std::size_t, ActionRole>> claimants;
    // Machines inputting this kind, ascending machine index.
    std::vector<std::size_t> subscribers;
  };

  ActionKindId intern(const Action& a, KindKey key);
  void resolve_kind(ActionKindId id);

  // --- calendar / dirty-set scheduler -------------------------------------

  // SlotRef::part of a single-part machine's slot: poll the machine whole.
  static constexpr std::uint32_t kWholeMachine = UINT32_MAX;
  // Which machine and part a scheduler slot polls (read together, so one
  // array).
  struct SlotRef {
    std::uint32_t machine = 0;
    std::uint32_t part = kWholeMachine;
  };

  // Scheduler slots: one per part of every machine added so far.
  std::size_t slot_count() const { return slots_.size(); }
  void reset_sched();
  void mark_dirty(std::size_t s) {
    if (!in_dirty_[s]) {
      in_dirty_[s] = 1;
      dirty_.push_back(s);
    }
  }
  // Marks dirty the slots of machine `m` that its last apply_input /
  // apply_local changed: its one slot, or the parts it reports touched.
  void mark_touched(std::size_t m) {
    const std::uint32_t base = part_base_[m];
    const std::uint32_t parts = part_base_[m + 1] - base;
    if (parts == 1) {
      mark_dirty(base);
    } else {
      mark_touched_parts(m, base, parts);
    }
  }
  void mark_touched_parts(std::size_t m, std::uint32_t base,
                          std::uint32_t parts);
  void flush_dirty();
  // Maps a flat candidate index (slot-ascending, per-slot enabled() order —
  // the reference loop's gather order) to (slot, offset).
  std::pair<std::size_t, std::size_t> locate_candidate(std::size_t k) const;

  // run() is begin_run(), the scheduler loop, end_run(): the lint gate,
  // the per-run probe split and on_run_begin, then the event-cap check,
  // on_run_end and the report.
  void begin_run();
  ExecutorReport end_run();
  void run_loop_sched();
  bool advance_time_wheel();
  void execute_fast(std::size_t slot, std::size_t offset);
  // Finishes an event the caller already owns: fills in the scalar fields
  // (time, clock, owner, visibility), notifies probes — measuring the event
  // once for every metered probe — and appends it to the trace when
  // recording. The action is never moved or copied here —
  // execute_fast consumes its candidate directly into the TimedEvent — so
  // attaching a probe adds no per-event Action traffic.
  void record_event(TimedEvent& e, std::size_t machine, ActionRole role,
                    bool visible);
  // Delivers on_time_advance to time_probes_ and re-arms time_probe_wake_.
  void notify_time_probes(Time prev);

  ExecutorOptions options_;
  // Process-unique instance id handed to FlightRecorder::bind (recorders
  // memoize per-executor kind ids; pointer identity is not enough because
  // a freed executor's address can be reused).
  std::uint64_t exec_uid_ = 0;
  FlightRecorder* flight_ = nullptr;
  // Microprofiler (obs/prof.hpp). prof_iter_ is the per-iteration sampling
  // decision: prof_ when the current loop iteration is sampled (its phases
  // are then bracketed with cycle reads), nullptr otherwise — so the
  // per-phase cost of an unsampled iteration is one pointer test.
  Profiler* prof_ = nullptr;
  Profiler* prof_iter_ = nullptr;
  // record_event has a consumer this run (trace recording, event probes,
  // or the flight recorder); computed once at run() start so the per-event
  // branch is one boolean load.
  bool sink_events_ = false;
  Rng rng_;
  std::vector<Probe*> probes_;
  // probes_ filtered by the observes_events()/observes_time() hints,
  // rebuilt at each run() start: the per-event and per-advance loops
  // dispatch only to probes that implement that hook.
  struct EventProbe {
    Probe* probe;
    // The probe as a MeteredProbe (analysis/meter.hpp), else nullptr: it is
    // handed meter_'s measurement instead of measuring on its own.
    MeteredProbe* metered;
    // The profiler phase (ProfPhase as uint8_t) its time is booked to,
    // from Probe::profile_name().
    std::uint8_t phase;
  };
  std::vector<EventProbe> event_probes_;
  std::vector<Probe*> time_probes_;
  // The one window meter of every metered probe, kept with the executor:
  // its message ledger is keyed by this executor's uids, so a later run()'s
  // deliveries still match their sends. Gaps are on from the first run
  // with a metered probe that wants them.
  WindowMeter meter_{/*mmt_gaps=*/false};
  bool metered_run_ = false;  // this run has a metered event probe
  // Earliest next_time_interest() across time_probes_; advances that stop
  // short of it skip probe notification entirely (kTimeMax = no probes).
  Time time_probe_wake_ = kTimeMax;
  std::vector<Machine*> machines_;
  std::vector<std::unique_ptr<Machine>> owned_;
  std::unordered_set<ActionName> hidden_;
  std::function<bool()> stop_when_;
  Time now_ = 0;
  std::size_t steps_ = 0;
  bool quiesced_ = false;
  // The uid name_message gives the next unnamed message this executor
  // sends: uids are dense from 1 in the order messages are first sent.
  std::uint64_t next_msg_uid_ = 1;
  TimedTrace events_;
  ExecutorStats stats_;

  // Interning / routing state.
  struct KindRef {
    ActionName name;
    int node = kNoNode;
    int peer = kNoNode;
  };
  std::unordered_map<KindKey, ActionKindId> kind_ids_;
  std::vector<KindRef> kind_refs_;  // id -> kind
  std::vector<KindInfo> kinds_;     // id -> routing info
  std::unordered_map<ActionName, DeclBucket> decls_by_name_;
  std::uint64_t decl_seq_ = 0;

  // Scheduler state, as parallel arrays. Keeping each field in its own
  // contiguous array (structure-of-arrays) means the loops that walk one
  // field — locate_candidate over counts — stream through packed memory
  // instead of striding over fat records. Per slot:
  std::vector<SlotRef> slots_;
  std::vector<Candidates> cands_;            // cached candidates per slot
  std::vector<std::uint32_t> cand_count_;    // cands_[s].size(), packed
  std::vector<char> in_dirty_;
  HierBitset nonempty_;  // slots with cand_count_[s] > 0
  // Per machine: its slots are [part_base_[m], part_base_[m + 1]).
  std::vector<std::uint32_t> part_base_ = {0};
  // Per-slot routing memo: the kind key, id and role of the slot's last
  // executed action. A slot that keeps emitting one kind skips the intern
  // hash and the claimant scan after its first event. Kept per slot, not
  // per machine: each member of a Simulation 1 node emits its own kinds, so
  // a per-machine memo would miss at almost every change of member. Reset
  // by add(), which can change routing.
  std::vector<KindKey> memo_key_;
  std::vector<ActionKindId> memo_kid_;
  std::vector<ActionRole> memo_role_;

  std::vector<std::size_t> dirty_;  // slots to re-poll before the next pick
  std::vector<std::uint32_t> touched_;  // mark_touched scratch
  std::size_t total_cands_ = 0;
  // One entry per empty slot at most (see flush_dirty).
  TimingWheel ne_wheel_;  // next_enabled hints
  TimingWheel ub_wheel_;  // upper_bound deadlines below next_enabled
  // Recycled per-event scratch: the candidate Action is swapped (not moved)
  // into this event and swapped back out on the next pick, so the args /
  // message buffers cycle between the scheduler and the machines'
  // candidate lists instead of hitting the allocator each event.
  TimedEvent scratch_event_;
};

}  // namespace psc
