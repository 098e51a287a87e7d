#include "runtime/executor.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "obs/flight.hpp"
#include "obs/prof.hpp"
#include "util/check.hpp"

namespace psc {

namespace {
std::uint64_t next_exec_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}
}  // namespace

Executor::Executor(ExecutorOptions options)
    : options_(std::move(options)),
      exec_uid_(next_exec_uid()),
      rng_(options_.seed),
      probes_(std::move(options_.probes)) {}

Executor::~Executor() = default;

void Executor::add(Machine* machine) {
  PSC_CHECK(machine != nullptr, "null machine");
  const std::size_t m = machines_.size();
  machines_.push_back(machine);
  // One scheduler slot per part, after every earlier machine's slots. A
  // single-part machine is polled whole (kWholeMachine), skipping the
  // part_* forwarding.
  const std::size_t parts = machine->part_count();
  PSC_CHECK(parts >= 1, "machine " << machine->name() << " has no parts");
  for (std::size_t p = 0; p < parts; ++p) {
    slots_.push_back({static_cast<std::uint32_t>(m),
                      parts == 1 ? kWholeMachine
                                 : static_cast<std::uint32_t>(p)});
    cands_.emplace_back();
    cand_count_.push_back(0);
    in_dirty_.push_back(0);
    memo_key_.push_back(0);
    memo_kid_.push_back(kNoKind);
    memo_role_.push_back(ActionRole::kNotMine);
  }
  part_base_.push_back(static_cast<std::uint32_t>(slots_.size()));
  // The index keeps its own copy of the entries, so a fresh declaration
  // serves and the machine's cached one is not needed.
  SignatureDecl decl;
  machine->declare_signature(decl);
  for (const SignatureDecl::Entry& e : decl.entries()) {
    DeclBucket& b = decls_by_name_[e.name];
    const DeclRecord rec{e.node, e.peer, e.role, m, decl_seq_++};
    if (e.node == kAnyNode) {
      b.any_node.push_back(rec);
    } else {
      b.by_node[e.node].push_back(rec);
    }
  }
  // The new machine may subscribe to or claim already-interned kinds, so
  // resolved routing lists — and the per-slot memos caching their
  // conclusions — are stale.
  for (KindInfo& k : kinds_) k.resolved = false;
  std::fill(memo_kid_.begin(), memo_kid_.end(), kNoKind);
}

void Executor::add_owned(std::unique_ptr<Machine> machine) {
  add(machine.get());
  owned_.push_back(std::move(machine));
}

void Executor::hide(ActionName action_name) {
  hidden_.insert(action_name);
  // Assemblies hide after add(): keep already-interned kinds in sync so the
  // per-event visibility test stays a plain flag read.
  for (std::size_t i = 0; i < kind_refs_.size(); ++i) {
    if (kind_refs_[i].name == action_name) kinds_[i].hidden = true;
  }
}

void Executor::stop_when(std::function<bool()> predicate) {
  stop_when_ = std::move(predicate);
}

void Executor::attach_probe(Probe* probe) {
  PSC_CHECK(probe != nullptr, "null probe");
  probes_.push_back(probe);
}

void Executor::attach_flight(FlightRecorder* flight) {
  flight_ = flight;
  if (flight_ != nullptr) flight_->bind(exec_uid_);
}

void Executor::attach_profiler(Profiler* prof) {
  prof_ = prof;
  if (prof_ != nullptr) prof_->bind(exec_uid_);
}

// --- interned action kinds and the subscription index ---------------------

ActionKindId Executor::intern(const Action& a, KindKey key) {
  const auto [it, fresh] =
      kind_ids_.try_emplace(key, static_cast<ActionKindId>(kinds_.size()));
  if (!fresh) return it->second;
  kind_refs_.push_back({a.name, a.node, a.peer});
  KindInfo info;
  info.hidden = hidden_.find(a.name) != hidden_.end();
  kinds_.push_back(std::move(info));
  return it->second;
}

void Executor::resolve_kind(ActionKindId id) {
  KindInfo& k = kinds_[static_cast<std::size_t>(id)];
  k.claimants.clear();
  k.subscribers.clear();
  const KindRef& kind = kind_refs_[static_cast<std::size_t>(id)];
  const auto bucket = decls_by_name_.find(kind.name);
  if (bucket != decls_by_name_.end()) {
    // Only records declared for this kind's node (or for any node) can
    // match; merge those two lists back into global declaration order so
    // the routing lists come out exactly as a flat scan over all records
    // would have built them. Both lists are seq-ascending by construction,
    // and seq order is machine-ascending, so the back() test still dedups.
    static const std::vector<DeclRecord> kNone;
    const auto it = bucket->second.by_node.find(kind.node);
    const std::vector<DeclRecord>& exact =
        it != bucket->second.by_node.end() ? it->second : kNone;
    const std::vector<DeclRecord>& any = bucket->second.any_node;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < exact.size() || j < any.size()) {
      const DeclRecord& d =
          j >= any.size() || (i < exact.size() && exact[i].seq < any[j].seq)
              ? exact[i++]
              : any[j++];
      if (d.peer != kAnyNode && d.peer != kind.peer) continue;
      if (d.role == ActionRole::kInput) {
        if (k.subscribers.empty() || k.subscribers.back() != d.machine) {
          k.subscribers.push_back(d.machine);
        }
      } else if (d.role == ActionRole::kOutput ||
                 d.role == ActionRole::kInternal) {
        if (k.claimants.empty() || k.claimants.back().first != d.machine) {
          k.claimants.push_back({d.machine, d.role});
        }
      }
    }
  }
  // Local beats input within one machine (composition semantics): a machine
  // that locally controls a kind never receives it as its own input.
  if (!k.claimants.empty() && !k.subscribers.empty()) {
    std::erase_if(k.subscribers, [&k](std::size_t m) {
      for (const auto& c : k.claimants) {
        if (c.first == m) return true;
      }
      return false;
    });
  }
  k.resolved = true;
}

// --- calendar / dirty-set scheduler ---------------------------------------

void Executor::reset_sched() {
  dirty_.clear();
  ne_wheel_.reset(now_, slot_count());
  ub_wheel_.reset(now_, slot_count());
  total_cands_ = 0;
  nonempty_.assign(slot_count());
  for (std::size_t s = 0; s < slot_count(); ++s) {
    cands_[s].clear();
    cand_count_[s] = 0;
    in_dirty_[s] = 1;
    dirty_.push_back(s);
  }
}

void Executor::mark_touched_parts(std::size_t m, std::uint32_t base,
                                  std::uint32_t parts) {
  touched_.clear();
  machines_[m]->take_touched_parts(touched_);
  for (const std::uint32_t p : touched_) {
    PSC_CHECK(p < parts, "machine " << machines_[m]->name()
                                    << " reported part " << p << " of "
                                    << parts);
    mark_dirty(base + p);
  }
}

void Executor::flush_dirty() {
  if (!dirty_.empty()) {
    ++stats_.dirty_flushes;
    stats_.dirty_repolls += dirty_.size();
    stats_.dirty_peak = std::max<std::uint64_t>(stats_.dirty_peak,
                                                dirty_.size());
    stats_.cand_cache_hits += slot_count() - dirty_.size();
  }
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    const std::size_t s = dirty_[i];
    in_dirty_[s] = 0;
    const Machine* m = machines_[slots_[s].machine];
    const std::uint32_t part = slots_[s].part;
    const bool whole = part == kWholeMachine;
    Candidates& c = cands_[s];
    total_cands_ -= c.size();
    if (whole) {
      m->enabled_into(now_, c);
    } else {
      m->part_enabled_into(part, now_, c);
    }
    total_cands_ += c.size();
    cand_count_[s] = static_cast<std::uint32_t>(c.size());
    const bool empty = c.empty();
    if (empty) {
      nonempty_.reset(s);
    } else {
      nonempty_.set(s);
    }
    const Time ne =
        whole ? m->next_enabled(now_) : m->part_next_enabled(part, now_);
    PSC_CHECK(ne > now_ || ne == kTimeMax,
              "machine " << m->name() << " reported next_enabled "
                         << format_time(ne) << " not after now "
                         << format_time(now_));
    const Time ub =
        whole ? m->upper_bound(now_) : m->part_upper_bound(part, now_);
    PSC_CHECK(ub >= now_, "machine " << m->name()
                                     << " upper_bound in the past: "
                                     << format_time(ub) << " < "
                                     << format_time(now_));
    // Wakes are filed only for an empty slot (time passes only when every
    // slot is empty, and a non-empty one is re-polled before it can be
    // empty again), and its upper bound only below its next_enabled (one
    // at or past it neither wakes the slot first nor fails the
    // next <= ub check).
    const auto slot = static_cast<std::uint32_t>(s);
    ne_wheel_.set(slot, empty ? ne : kTimeMax, stats_.wheel);
    ub_wheel_.set(slot, empty && ub < ne ? ub : kTimeMax, stats_.wheel);
  }
  dirty_.clear();
}

std::pair<std::size_t, std::size_t> Executor::locate_candidate(
    std::size_t k) const {
  for (std::size_t s = nonempty_.next_set(0); s != HierBitset::npos;
       s = nonempty_.next_set(s + 1)) {
    const std::size_t n = cand_count_[s];
    if (k < n) return {s, k};
    k -= n;
  }
  PSC_CHECK(false, "candidate index " << k << " out of range");
  return {0, 0};
}

void Executor::record_event(TimedEvent& e, std::size_t machine,
                            ActionRole role, bool visible) {
  Machine* owner = machines_[machine];
  Profiler* const pr = prof_iter_;
  std::uint64_t t0 = pr != nullptr ? Profiler::ticks() : 0;
  e.time = now_;
  // clocked() is a non-virtual flag: unclocked machines (the common case
  // in timed-model runs) skip the virtual clock_reading dispatch and the
  // result is identical — their override-free reading is kNoClockTag.
  e.clock = owner->clocked() ? owner->clock_reading(now_) : kNoClockTag;
  e.owner = static_cast<int>(machine);
  e.visible = visible && role == ActionRole::kOutput;
  if (pr != nullptr) {
    const std::uint64_t t1 = Profiler::ticks();
    pr->add(ProfPhase::kRecord, t1 - t0);
    t0 = t1;
  }
  // The flight ring is fed before the probes: when an InvariantProbe raises
  // a PSC1xx violation from its on_event and a dump hook fires, the
  // snapshot already contains the offending event.
  if (flight_ != nullptr) {
    flight_->record(e);
    if (pr != nullptr) {
      const std::uint64_t t1 = Profiler::ticks();
      pr->add(ProfPhase::kFlight, t1 - t0);
      t0 = t1;
    }
  }
  if (pr == nullptr) {
    for (Probe* p : event_probes_) p->on_event(e, *owner);
  } else {
    // Sampled iteration: bracket each probe individually so lint probes
    // (profile_name() == "lint") book to their own phase.
    for (std::size_t i = 0; i < event_probes_.size(); ++i) {
      event_probes_[i]->on_event(e, *owner);
      const std::uint64_t t1 = Profiler::ticks();
      pr->add(static_cast<ProfPhase>(event_probe_phase_[i]), t1 - t0);
      t0 = t1;
    }
  }
  if (options_.record_events) {
    events_.push_back(std::move(e));
    if (pr != nullptr) pr->add(ProfPhase::kRecord, Profiler::ticks() - t0);
  }
}

void Executor::execute_fast(std::size_t slot, std::size_t offset) {
  // The machine is re-polled before the next pick, so the cached entry can
  // be consumed in place. It is *swapped* (not moved) into the recycled
  // scratch event: the previous event's dead Action lands in the candidate
  // slot about to be overwritten by the re-poll, so the args/message
  // buffers cycle between the scheduler and the machines' candidate lists
  // instead of going through the allocator. record_event then
  // only fills in scalar fields, so attaching a probe adds no per-event
  // Action traffic either.
  TimedEvent& ev = scratch_event_;
  Profiler* const pr = prof_iter_;
  std::uint64_t t0 = pr != nullptr ? Profiler::ticks() : 0;
  swap(ev.action, cands_[slot][offset]);
  // Named before the owner and the receivers apply it, so a composite's
  // members, the channels and the buffers all see the sent uid.
  name_message(ev.action, next_msg_uid_);
  const Action& a = ev.action;
  const std::size_t machine = slots_[slot].machine;
  Machine* owner = machines_[machine];

  // Per-slot kind memo: a slot that keeps emitting one kind (a channel, or
  // one member of a Simulation 1 node) skips the interning hash entirely.
  const KindKey key = kind_key(a);
  ActionKindId kid = memo_kid_[slot];
  const bool memo = kid != kNoKind && memo_key_[slot] == key;
  if (!memo) {
    kid = intern(a, key);
    memo_key_[slot] = key;
    memo_kid_[slot] = kid;
    memo_role_[slot] = ActionRole::kNotMine;  // role not yet validated
  }
  ev.kind = kid;
  KindInfo& k = kinds_[static_cast<std::size_t>(kid)];
  if (!k.resolved) {
    ++stats_.kind_resolves;
    resolve_kind(kid);
  } else {
    ++stats_.kind_hits;
    if (memo) ++stats_.kind_memo_hits;
  }

  // The claimant scan validates that the owner's signature locally
  // controls this kind; its verdict is pure in (machine, kind) while the
  // composition is fixed, so the memoized role skips the re-validation.
  ActionRole role = ActionRole::kNotMine;
  if (memo && memo_role_[slot] != ActionRole::kNotMine) {
    role = memo_role_[slot];
  } else {
    for (const auto& c : k.claimants) {
      if (c.first == machine) {
        role = c.second;
        break;
      }
    }
    PSC_CHECK(role == ActionRole::kOutput || role == ActionRole::kInternal,
              "machine " << owner->name() << " enabled action "
                         << to_string(a)
                         << " not locally controlled by its signature");
    memo_role_[slot] = role;
  }
  if (pr != nullptr) {
    const std::uint64_t t1 = Profiler::ticks();
    pr->add(ProfPhase::kRoute, t1 - t0);
    t0 = t1;
  }

  owner->apply_local(a, now_);
  mark_touched(machine);

  if (role == ActionRole::kOutput) {
    // Composition compatibility, with the same timing as the reference loop:
    // checked only when an output of the kind actually executes.
    for (const auto& c : k.claimants) {
      PSC_CHECK(c.first == machine,
                "action " << to_string(a) << " is locally controlled by both "
                          << owner->name() << " and "
                          << machines_[c.first]->name()
                          << " (incompatible composition)");
    }
    for (std::size_t m : k.subscribers) {
      if (m == machine) continue;
      ++stats_.fanout_inputs;
      machines_[m]->apply_input(a, now_);
      if (!machines_[m]->last_input_inert()) mark_touched(m);
    }
  }
  if (pr != nullptr) {
    const std::uint64_t dt = Profiler::ticks() - t0;
    pr->add(ProfPhase::kStep, dt);
    // The step span is the one worth splitting: route/record are uniform,
    // but apply_local + fanout cost is a property of the machine and the
    // action kind it emitted.
    pr->add_kind(a.name, dt);
    pr->add_machine(machine, typeid(*owner), dt);
  }

  if (sink_events_) {
    record_event(ev, machine, role, !k.hidden);
  }
  ++steps_;
  ++stats_.events;
  if (prof_ != nullptr) prof_->count_event();
}

bool Executor::advance_time_wheel() {
  // The same decision sequence as the reference loop's min-scan: quiesce,
  // horizon, then the next <= ub deadlock check. The deadlock check, probe
  // notification and wake set are observable through probes and the RNG
  // stream, and the trace-equivalence tests pin all three. Both minima must
  // be exact because `now` jumps straight to `next`.
  const Time next = ne_wheel_.earliest();
  if (next >= kTimeMax) {
    quiesced_ = true;
    return false;  // nothing will ever enable again
  }
  if (next > options_.horizon) {
    return false;  // future work exists but lies beyond the horizon
  }
  const Time ub = ub_wheel_.earliest();
  // Urgency consistency: if a machine forbids time passing some bound but
  // nothing becomes enabled by then, the composition is deadlocked — a bug
  // in the model under test, so fail loudly.
  PSC_CHECK(next <= ub,
            "time deadlock: next enabling at "
                << format_time(next) << " but an upper bound stops time at "
                << format_time(ub));
  const Time prev = now_;
  now_ = next;
  ++stats_.time_advances;
  if (now_ >= time_probe_wake_) notify_time_probes(prev);
  // Wake every slot whose hint has come due; woken slots are re-polled at
  // the new now before the next pick.
  const auto due = [this](std::uint32_t s) { mark_dirty(s); };
  ne_wheel_.advance_to(now_, due, stats_.wheel);
  ub_wheel_.advance_to(now_, due, stats_.wheel);
  return true;
}

void Executor::run_loop_sched() {
  reset_sched();
  while (steps_ < options_.max_events) {
    if (stop_when_ && stop_when_()) break;
    // Microprofiler sampling decision, once per loop iteration: on a
    // sampled iteration prof_iter_ points at the profiler and every phase
    // below is bracketed with cycle reads; otherwise the whole iteration
    // pays this one test (plus one counter decrement inside
    // begin_iteration when a profiler is attached at all).
    if (prof_ != nullptr) {
      prof_iter_ = prof_->begin_iteration() ? prof_ : nullptr;
    }
    Profiler* const pr = prof_iter_;
    std::uint64_t t0 = pr != nullptr ? Profiler::ticks() : 0;
    flush_dirty();
    if (pr != nullptr) {
      const std::uint64_t t1 = Profiler::ticks();
      pr->add(ProfPhase::kPoll, t1 - t0);
      t0 = t1;
    }
    if (total_cands_ > 0) {
      const std::size_t pick =
          total_cands_ == 1 ? 0 : rng_.index(total_cands_);
      const auto [slot, offset] = locate_candidate(pick);
      if (pr != nullptr) pr->add(ProfPhase::kPick, Profiler::ticks() - t0);
      execute_fast(slot, offset);
      continue;
    }
    const bool advanced = advance_time_wheel();
    if (pr != nullptr) pr->add(ProfPhase::kAdvance, Profiler::ticks() - t0);
    if (!advanced) break;
  }
  prof_iter_ = nullptr;
}

DiagnosticReport Executor::validate_composition(const LintOptions& opts) const {
  return lint_composition(composition(), opts);
}

void Executor::notify_time_probes(Time prev) {
  // Deliver the advance, then re-arm the wake from each probe's declared
  // next interest (0 = every advance, so default probes are never skipped).
  time_probe_wake_ = kTimeMax;
  for (Probe* p : time_probes_) {
    p->on_time_advance(prev, now_);
    time_probe_wake_ = std::min(time_probe_wake_, p->next_time_interest());
  }
}

ExecutorReport Executor::run() {
  begin_run();
  run_loop_sched();
  return end_run();
}

void Executor::begin_run() {
  if (options_.validate) {
    const DiagnosticReport rep = validate_composition();
    PSC_CHECK(!rep.has_errors(),
              "composition lint failed:\n" << rep.to_text());
  }
  // Split probes_ by the observes_* hints once per run, so the per-event
  // and per-advance loops only make virtual calls that do something (a
  // TimeSeriesProbe never sees events, a BoundSlackProbe never sees time
  // passage — paying an empty virtual call per event for each would cost
  // a measurable slice of the probe overhead budget).
  event_probes_.clear();
  event_probe_phase_.clear();
  time_probes_.clear();
  for (Probe* p : probes_) {
    if (p->observes_events()) {
      event_probes_.push_back(p);
      // Profiler attribution: lint probes book to their own phase so the
      // online checker's cost is measured directly, not A/B-inferred.
      event_probe_phase_.push_back(static_cast<std::uint8_t>(
          p->profile_name() == "lint" ? ProfPhase::kLint : ProfPhase::kProbe));
    }
    if (p->observes_time()) time_probes_.push_back(p);
  }
  sink_events_ =
      options_.record_events || !event_probes_.empty() || flight_ != nullptr;
  if (flight_ != nullptr) flight_->bind(exec_uid_);
  // First advance always notifies (and learns each probe's real wake).
  time_probe_wake_ = time_probes_.empty() ? kTimeMax : 0;
  for (Probe* p : probes_) p->on_run_begin(now_);
  // The profiler's wall bracket covers exactly the loop: the phase spans it
  // must sum to (within the conservation gate) all live inside.
  if (prof_ != nullptr) {
    prof_->bind(exec_uid_);
    prof_->run_begin();
  }
}

ExecutorReport Executor::end_run() {
  if (prof_ != nullptr) prof_->run_end();
  const bool capped = steps_ >= options_.max_events;
  // With a stop condition registered the cap is a reportable outcome (the
  // predicate may have been about to fire); without one it is a runaway.
  PSC_CHECK(!capped || stop_when_ != nullptr,
            "event cap " << options_.max_events
                         << " reached — runaway execution?");
  for (Probe* p : probes_) p->on_run_end(now_);
  ExecutorReport r;
  r.end_time = now_;
  r.steps = steps_;
  r.quiesced = quiesced_;
  r.hit_event_cap = capped;
  r.stats = stats_;
  return r;
}

}  // namespace psc
