// Sampling microprofiler for the executor hot loop (docs/OBSERVABILITY.md,
// "Microprofiler").
//
// PR 8 could only price the flight recorder *indirectly*: run the bench
// twice, once with the recorder attached and once without, and call the
// ns/event delta its cost. That works for one feature at a time and only
// down to the bench noise floor (~2%); it says nothing about where the
// *baseline* nanoseconds go (wheel advance? dirty re-poll? routing?). The
// microprofiler answers that directly: the scheduler loop brackets each
// hot-loop phase — wheel advance, candidate poll, pick, routing,
// machine step, trace record, probe dispatch, online lint, flight record —
// with cycle-counter reads and accumulates per-phase totals, plus
// per-action-name and per-machine-type attribution of the step phase (a
// name's slot is found through its process-wide ActionName id, a machine's
// through its per-executor index).
//
// Timer cost is real (two rdtsc reads per phase, ~6 phases per event), so
// full instrumentation of every iteration would itself be a ~40-75% "arm".
// Instead the profiler samples whole loop iterations 1-in-N (default 64,
// with a deterministic jittered gap so the stride cannot alias with the
// wheel's power-of-two slot periodicity — see next_gap): an unsampled
// iteration pays exactly one decrement-and-test, a sampled one is timed end
// to end, and totals are scaled by the measured sampling ratio at report
// time. Phase ticks are converted to nanoseconds by calibrating
// the tick clock against steady_clock across the whole run (run_begin/
// run_end capture both), so reports are in ns regardless of the TSC rate.
//
// Two systematic errors are corrected before the scale-up:
//
//   1. Timer self-cost. The timer cost sampled iterations *do* pay lands
//      inside their phase spans, and the report-time sampling scale
//      multiplies it by N — left uncorrected, phase sums systematically
//      exceed the measured wall (+10% at bench scale, worse on short
//      loops). The constructor calibrates the cost of one bracket (a
//      ticks() read plus the add() bookkeeping) by running the exact
//      bracket sequence back to back, and report() subtracts
//      hits * bracket_ticks() from every phase/kind/machine total.
//   2. Preemption amplification. rdtsc keeps counting while the thread is
//      scheduled out, so a stolen CPU slice landing inside a sampled span
//      is scaled by N at report time — one 1.5ms preemption in a 300ms
//      run misattributes ~30% of the wall (observed as phase-sum
//      conservation swinging 94%..131% between identical runs on a shared
//      box). Sampled iterations are therefore buffered and discarded when
//      their total span exceeds kMaxSampledIterTicks (far above any real
//      iteration, far below a scheduler slice), and conservation is
//      checked against *thread CPU time* (cpu_ns), which a preemption
//      never inflates, rather than wall time.
//
// bench_executor gates the default-sampling overhead under 10% of
// scheduler ns/event at >= 65,536 machines, checks the corrected phase
// sums cover 90-120% of the profiled run's thread CPU time, and
// cross-checks the direct record-path attribution against the flight
// recorder's A/B arm.
//
// Layering: psc_runtime cannot link psc_obs, so everything the executor
// calls per iteration/event (begin_iteration, add, add_kind, add_machine,
// count_event) is defined inline in this header — the same arrangement as
// obs/flight.hpp. The cold reporting half — ProfReport assembly,
// MetricsRegistry export, folded-stack/flamegraph and table rendering, the
// Chrome counter-track probe — lives in prof.cpp inside psc_obs.
//
// Wiring: construct a Profiler, hand it to Executor::attach_profiler
// (RunObserver::attach does this from ObsOptions::profile), run, then
// report()/export_metrics(). One profiler may observe several executors in
// sequence (bench repeats aggregate into one): bind() drops the
// per-executor machine memo while the profiler's own slot tables keep
// accumulating.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <iosfwd>
#include <string>
#include <string_view>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif
#if defined(__GNUG__)
#include <cstdlib>
#include <cxxabi.h>
#endif

#include "core/trace.hpp"
#include "obs/probe.hpp"

namespace psc {

class MetricsRegistry;
class ChromeTraceWriter;

// The hot-loop phases the scheduler brackets. One iteration of the event
// loop is either an event (kPoll + kPick + kRoute + kStep + the record
// phases) or a time advance (kPoll + kAdvance); the phase totals therefore
// partition the loop's wall time up to the unbracketed loop framing.
enum class ProfPhase : std::uint8_t {
  kAdvance = 0,  // advance_time_wheel
  kPoll,         // flush_dirty (candidate re-poll)
  kPick,         // adversary RNG draw + locate_candidate
  kRoute,        // kind memo/intern/resolve + claimant role validation
  kStep,         // apply_local + dirty marking + subscriber fanout
  kRecord,       // TimedEvent scalar fill + record_events push_back
  kProbe,        // on_event dispatch to non-lint probes
  kLint,         // on_event dispatch to the online invariant checker
  kFlight,       // FlightRecorder::record
  kCount_,
};

inline constexpr std::size_t kProfPhaseCount =
    static_cast<std::size_t>(ProfPhase::kCount_);

inline constexpr const char* kProfPhaseNames[kProfPhaseCount] = {
    "advance", "poll", "pick", "route", "step",
    "record",  "probe", "lint", "flight",
};

struct ProfOptions {
  // Time 1 out of every N loop iterations (N = 1 instruments everything).
  // The default keeps the two-rdtsc-per-phase timer cost near 1/64th of its
  // exhaustive price, which is what holds the bench overhead gate.
  std::uint32_t sample_every = 64;
};

// One attribution row of a ProfReport: a phase, an action kind, or a
// machine type. `ns` is already scaled to estimated whole-run nanoseconds
// (ticks * calibrated ns/tick * sampling ratio); `count` is the raw number
// of sampled hits (phases) or sampled events (kinds/machines).
struct ProfEntry {
  std::string name;
  std::uint64_t count = 0;
  double ns = 0;
};

// Cold, copyable snapshot assembled by Profiler::report().
struct ProfReport {
  std::uint32_t sample_every = 1;
  double sample_scale = 1.0;  // iterations / sampled_iterations (0-guarded)
  std::uint64_t iterations = 0;
  std::uint64_t sampled_iterations = 0;
  // Sampled iterations discarded because a preemption-sized stall landed
  // inside their span (see kMaxSampledIterTicks); not in the counts above.
  std::uint64_t rejected_iterations = 0;
  std::uint64_t events = 0;  // exact — counted on every event, sampled or not
  double wall_ns = 0;        // run_begin -> run_end, summed over runs
  // Thread CPU time over the same spans: the conservation denominator
  // (wall minus whatever the OS scheduled us out for). Falls back to wall
  // where no thread CPU clock exists.
  double cpu_ns = 0;
  double ns_per_tick = 0;    // calibrated; 0 when no time passed
  // Calibrated self-cost of one phase bracket in ticks; every entry below
  // already has hits * bracket_ticks subtracted (clamped at zero).
  double bracket_ticks = 0;
  std::vector<ProfEntry> phases;    // index = ProfPhase, always kProfPhaseCount
  std::vector<ProfEntry> kinds;     // step time per action kind, ns-descending
  std::vector<ProfEntry> machines;  // step time per machine type, ns-descending

  double phase_total_ns() const {
    double total = 0;
    for (const ProfEntry& e : phases) total += e.ns;
    return total;
  }
  // Estimated ns/event of one phase over the profiled run (0 on no events).
  double phase_ns_per_event(ProfPhase ph) const {
    if (events == 0) return 0.0;
    return phases[static_cast<std::size_t>(ph)].ns /
           static_cast<double>(events);
  }
};

class Profiler {
 public:
  explicit Profiler(ProfOptions opts = {}) : opts_(opts) {
    if (opts_.sample_every == 0) opts_.sample_every = 1;
    countdown_ = opts_.sample_every;
    bracket_ticks_ = calibrate_bracket_ticks();
  }

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  const ProfOptions& options() const { return opts_; }

  // Raw cycle counter: rdtsc where available, steady_clock ns elsewhere.
  // Unserialized on purpose — phase spans are hundreds of instructions, so
  // out-of-order skew is noise, and a fence would cost more than it fixes.
  static std::uint64_t ticks() {
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
  }

  // Self-cost of one phase bracket (a ticks() read plus the accumulate in
  // add()), measured by running the exact bracket sequence back to back
  // with no work between brackets. Min-of-batches rejects batches a timer
  // interrupt landed in, biasing the estimate low — under-subtracting
  // leaves a little timer cost in the phases (conservation reads slightly
  // high), over-subtracting would invent idle time that belongs to nobody.
  static double calibrate_bracket_ticks() {
    constexpr int kBatches = 16;
    constexpr int kPerBatch = 2048;
    volatile std::uint64_t acc = 0;  // stand-in for add()'s accumulate
    double best = -1.0;
    for (int b = 0; b < kBatches; ++b) {
      std::uint64_t t0 = ticks();
      const std::uint64_t begin = t0;
      for (int i = 0; i < kPerBatch; ++i) {
        const std::uint64_t t1 = ticks();
        acc = acc + (t1 - t0);
        t0 = t1;
      }
      const double mean = static_cast<double>(t0 - begin) / kPerBatch;
      if (best < 0 || mean < best) best = mean;
    }
    return best < 0 ? 0.0 : best;
  }

  // Associates the profiler with one executor instance. Machine indices
  // are dense *per executor*, so the memo mapping them to profiler slots
  // resets when the executor changes — the slot tables themselves keep
  // aggregating across runs. Action-name ids are process-wide and need no
  // reset. Same contract as FlightRecorder::bind.
  void bind(std::uint64_t exec_uid) {
    if (exec_uid == bound_uid_) return;
    bound_uid_ = exec_uid;
    machine_memo_.clear();
  }

  // Wall-clock + CPU-clock + tick bracketing of one run's loop, for tick
  // calibration (ticks vs steady: both count through preemption, so the
  // ratio is the true tick rate) and the conservation denominator (CPU
  // time: preemption-free by construction).
  void run_begin() {
    run_t0_ticks_ = ticks();
    run_t0_ns_ = steady_ns();
    run_t0_cpu_ = thread_cpu_ns();
  }
  void run_end() {
    finalize_pending();
    ticks_span_ += ticks() - run_t0_ticks_;
    wall_ns_ += static_cast<double>(steady_ns() - run_t0_ns_);
    cpu_ns_ += static_cast<double>(thread_cpu_ns() - run_t0_cpu_);
  }

  // Called at the top of every loop iteration; true when this iteration is
  // sampled (the caller then brackets its phases). The countdown starts at
  // sample_every, so the first sampled iteration is the N-th — iteration 0
  // carries the O(machines) startup flush, which scaled by N would swamp
  // the poll estimate. The previous sampled iteration's buffered spans are
  // committed (or rejected as preemption-torn) here, once its end is known.
  bool begin_iteration() {
    ++iterations_;
    if (pending_active_) finalize_pending();
    if (--countdown_ != 0) return false;
    countdown_ = next_gap();
    ++sampled_iterations_;
    pending_active_ = true;
    return true;
  }

  // Exact per-event count, maintained even on unsampled iterations: report
  // ratios divide by real events, not scaled estimates.
  void count_event() { ++events_; }

  void add(ProfPhase ph, std::uint64_t dticks) {
    const auto i = static_cast<std::size_t>(ph);
    pending_phase_ticks_[i] += dticks;
    ++pending_phase_hits_[i];
  }

  // Attributes a sampled step span to the event's action name. Slots are
  // keyed by name, node/peer collapsed (a flood over 65k nodes has 65k SEND
  // kinds but one SEND row is what a profile wants), and found by the
  // name's process-wide id.
  void add_kind(ActionName name, std::uint64_t dticks) {
    if (name.id() >= name_slots_.size()) {
      name_slots_.resize(name.id() + 1, kNoSlot);
    }
    std::uint32_t& slot = name_slots_[name.id()];
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(kind_slots_.size());
      kind_slots_.push_back(Slot{name.view(), 0, 0});
    }
    pend_slot(pending_kinds_, pending_kind_n_, kind_slots_, slot, dticks);
  }

  // Attributes a sampled step span to the owning machine's dynamic type.
  // The demangle runs once per machine index (cold), memoized like kinds.
  void add_machine(std::size_t machine, const std::type_info& type,
                   std::uint64_t dticks) {
    if (machine >= machine_memo_.size()) {
      machine_memo_.resize(machine + 1, kNoSlot);
    }
    std::uint32_t slot = machine_memo_[machine];
    if (slot == kNoSlot) {
      const auto [it, fresh] = machine_index_.try_emplace(
          type_name(type), static_cast<std::uint32_t>(machine_slots_.size()));
      if (fresh) machine_slots_.push_back(Slot{it->first, 0, 0});
      slot = it->second;
      machine_memo_[machine] = slot;
    }
    pend_slot(pending_machines_, pending_machine_n_, machine_slots_, slot,
              dticks);
  }

  // --- introspection (tests, report assembly) ------------------------------

  std::uint64_t iterations() const { return iterations_; }
  std::uint64_t sampled_iterations() const { return sampled_iterations_; }
  std::uint64_t rejected_iterations() const { return rejected_iterations_; }
  std::uint64_t events() const { return events_; }
  double wall_ns() const { return wall_ns_; }
  double cpu_ns() const { return cpu_ns_; }
  double bracket_ticks() const { return bracket_ticks_; }
  std::uint64_t phase_ticks(ProfPhase ph) const {
    return phase_ticks_[static_cast<std::size_t>(ph)];
  }
  std::uint64_t phase_hits(ProfPhase ph) const {
    return phase_hits_[static_cast<std::size_t>(ph)];
  }
  // Sampled hits attributed to one kind/machine name (0 when never seen).
  std::uint64_t kind_count(std::string_view name) const {
    for (const Slot& s : kind_slots_) {
      if (s.name == name) return s.count;
    }
    return 0;
  }
  std::uint64_t machine_count(std::string_view name) const {
    const auto it = machine_index_.find(std::string(name));
    return it == machine_index_.end() ? 0 : machine_slots_[it->second].count;
  }
  // Sum of sampled hits across all kind (resp. machine) slots.
  std::uint64_t kind_count_total() const {
    std::uint64_t total = 0;
    for (const Slot& s : kind_slots_) total += s.count;
    return total;
  }
  std::uint64_t machine_count_total() const {
    std::uint64_t total = 0;
    for (const Slot& s : machine_slots_) total += s.count;
    return total;
  }

  // --- cold half (prof.cpp, psc_obs) ---------------------------------------

  // Scaled, ns-calibrated snapshot of everything accumulated so far.
  ProfReport report() const;
  // exec.prof.* gauges: sampling parameters, per-phase ns and share of
  // phase total, top kinds. All ratios 0-guarded for zero-event runs.
  void export_metrics(MetricsRegistry& registry) const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // `name` views the action-name table (kinds) or a machine_index_ key
  // (machines); both outlive the profiler's use of it.
  struct Slot {
    std::string_view name;
    std::uint64_t ticks = 0;
    std::uint64_t count = 0;
  };

  static std::uint64_t steady_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // CPU time consumed by the calling thread — time the OS scheduled us out
  // for does not count, which is exactly what the conservation check needs
  // as its denominator. steady_clock fallback where the clock is missing.
  static std::uint64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
      return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
             static_cast<std::uint64_t>(ts.tv_nsec);
    }
#endif
    return steady_ns();
  }

  // Ceiling on one sampled iteration's total span. A real iteration is at
  // most a few microseconds even at million-machine scale (a full wheel
  // cascade included); a CFS preemption slice is >= 1ms. 2^20 ticks
  // (~0.3-1ms across common TSC rates) sits between the two, so anything
  // above it is a stall the thread did not execute, which scaled by
  // sample_every would misattribute ~N times its length. Exhaustive mode
  // (N = 1) never rejects: there is no amplification to guard, and tests
  // pin its exact counts.
  static constexpr std::uint64_t kMaxSampledIterTicks = 1ull << 20;

  // Commits (or rejects) the buffered spans of the last sampled iteration,
  // once its full extent is known — called from the next begin_iteration
  // and from run_end, so the final iteration of a run is never dropped.
  void finalize_pending() {
    pending_active_ = false;
    std::uint64_t total = 0;
    for (std::uint64_t t : pending_phase_ticks_) total += t;
    const bool keep =
        opts_.sample_every <= 1 || total <= kMaxSampledIterTicks;
    if (keep) {
      for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
        phase_ticks_[i] += pending_phase_ticks_[i];
        phase_hits_[i] += pending_phase_hits_[i];
      }
      for (int i = 0; i < pending_kind_n_; ++i) {
        kind_slots_[pending_kinds_[i].slot].ticks += pending_kinds_[i].ticks;
        kind_slots_[pending_kinds_[i].slot].count += pending_kinds_[i].count;
      }
      for (int i = 0; i < pending_machine_n_; ++i) {
        machine_slots_[pending_machines_[i].slot].ticks +=
            pending_machines_[i].ticks;
        machine_slots_[pending_machines_[i].slot].count +=
            pending_machines_[i].count;
      }
    } else {
      ++rejected_iterations_;
    }
    for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
      pending_phase_ticks_[i] = 0;
      pending_phase_hits_[i] = 0;
    }
    pending_kind_n_ = 0;
    pending_machine_n_ = 0;
  }

  // Demangled type name with the library namespace stripped; cold path,
  // runs once per (profiler, machine index).
  static std::string type_name(const std::type_info& type) {
    std::string out = type.name();
#if defined(__GNUG__)
    int status = 0;
    char* d = abi::__cxa_demangle(type.name(), nullptr, nullptr, &status);
    if (status == 0 && d != nullptr) out = d;
    std::free(d);
#endif
    constexpr std::string_view kNs = "psc::";
    if (out.compare(0, kNs.size(), kNs) == 0) out.erase(0, kNs.size());
    return out;
  }

  // Next sampling gap, uniform in [N/2, 3N/2) via a fixed-seed xorshift.
  // A constant 1-in-N stride at the default N=64 is a power of two, and so
  // is everything periodic in the executor (wheel slot widths, ring sizes,
  // flood fan-out) — a locked stride samples the same phase of the wheel's
  // cascade cycle for a whole run and biases the extrapolation by several
  // percent with the sign depending on the initial alignment (observed:
  // phase-sum conservation swinging 102% -> 114% between identical runs).
  // Drawn only on sampled iterations, so unsampled ones still pay exactly
  // one decrement-and-test; the fixed seed keeps runs reproducible, and
  // report() scales by the *measured* iterations/sampled ratio, so the
  // ~N-0.5 mean gap costs nothing in accuracy. N = 1 never jitters —
  // prof_test pins that exhaustive mode counts every iteration.
  std::uint32_t next_gap() {
    const std::uint32_t n = opts_.sample_every;
    if (n <= 1) return 1;
    std::uint32_t x = rng_;
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    rng_ = x;
    return n / 2 + x % n;
  }

  // One buffered kind/machine attribution of the in-flight sampled
  // iteration. An iteration steps at most one event, so one entry is the
  // common case; the arrays hold a few for safety and overflow commits
  // straight to the slot (bypassing rejection — the phase rows, which the
  // conservation gate sums, are never bypassed).
  struct PendingSlot {
    std::uint32_t slot = 0;
    std::uint64_t ticks = 0;
    std::uint64_t count = 0;
  };
  static constexpr int kMaxPending = 4;

  static void pend_slot(PendingSlot* pending, int& n, std::vector<Slot>& slots,
                        std::uint32_t slot, std::uint64_t dticks) {
    for (int i = 0; i < n; ++i) {
      if (pending[i].slot == slot) {
        pending[i].ticks += dticks;
        ++pending[i].count;
        return;
      }
    }
    if (n < kMaxPending) {
      pending[n++] = PendingSlot{slot, dticks, 1};
      return;
    }
    slots[slot].ticks += dticks;
    ++slots[slot].count;
  }

  ProfOptions opts_;
  std::uint32_t countdown_ = 1;
  std::uint32_t rng_ = 0x9e3779b9u;  // fixed seed: deterministic sampling
  bool pending_active_ = false;
  std::uint64_t pending_phase_ticks_[kProfPhaseCount] = {};
  std::uint64_t pending_phase_hits_[kProfPhaseCount] = {};
  PendingSlot pending_kinds_[kMaxPending];
  PendingSlot pending_machines_[kMaxPending];
  int pending_kind_n_ = 0;
  int pending_machine_n_ = 0;
  std::uint64_t rejected_iterations_ = 0;
  double bracket_ticks_ = 0;
  std::uint64_t bound_uid_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t sampled_iterations_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t run_t0_ticks_ = 0;
  std::uint64_t run_t0_ns_ = 0;
  std::uint64_t run_t0_cpu_ = 0;
  std::uint64_t ticks_span_ = 0;
  double wall_ns_ = 0;
  double cpu_ns_ = 0;
  std::uint64_t phase_ticks_[kProfPhaseCount] = {};
  std::uint64_t phase_hits_[kProfPhaseCount] = {};
  std::vector<std::uint32_t> name_slots_;    // ActionName::id() -> slot
  std::vector<std::uint32_t> machine_memo_;  // machine index -> slot
  std::vector<Slot> kind_slots_;
  std::vector<Slot> machine_slots_;
  std::unordered_map<std::string, std::uint32_t> machine_index_;
};

// --- cold rendering (prof.cpp) ---------------------------------------------

// Folded-stack output, one "frame;frame;frame count" line per stack, ns as
// the count unit — pipe through flamegraph.pl (or paste into a viewer like
// speedscope) for a flame graph. Stacks: exec;<phase> for loop phases,
// exec;event;step;<KIND> for per-kind step time, machine;<Type> for
// per-machine-type step time.
void write_folded(std::ostream& os, const ProfReport& report);

// Human-readable self-time table: per-phase ns/event, share of wall, hits;
// then top kinds and machine types. bench_executor and psc-report print
// this; the phase rows are what the 5%-of-wall conservation gate sums.
void write_prof_table(std::ostream& os, const ProfReport& report);

// Streams the profiler's cumulative per-phase tick totals into a Chrome
// trace as one counter track per phase ("exec.prof ticks"), sampled on a
// simulated-time cadence. Tick units, not ns: the calibration ratio is
// only known at run_end, by which time the first-attached ChromeTraceProbe
// has already closed the document — relative phase weight over time is
// what the track is for. Attached by RunObserver when both a profiler and
// a chrome writer are configured.
class ProfCounterProbe final : public Probe {
 public:
  ProfCounterProbe(const Profiler& prof, ChromeTraceWriter& writer,
                   Duration cadence = milliseconds(1));

  bool observes_events() const override { return false; }
  Time next_time_interest() const override { return next_sample_; }
  void on_run_begin(Time now) override;
  void on_time_advance(Time from, Time to) override;

 private:
  void sample(Time t);

  const Profiler& prof_;
  ChromeTraceWriter& writer_;
  Duration cadence_;
  Time next_sample_ = 0;
};

}  // namespace psc
