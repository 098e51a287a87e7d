#include "obs/prof.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"

namespace psc {

namespace {

// Shared scaling for report assembly: sampled ticks -> estimated whole-run
// nanoseconds. Every divide is zero-guarded so a 0-step (or 0-sample) run
// reports clean zeros instead of NaN/inf (satellite: derived-rate guards).
// Each accumulated span carried the cost of its own bracket (the ticks()
// read + add() bookkeeping) — scaled by sample_every that self-cost would
// systematically overstate every phase, so it is subtracted per hit first,
// clamped at zero for spans shorter than the timer itself.
struct Scaling {
  double ns_per_tick = 0;
  double sample_scale = 1.0;
  double bracket_ticks = 0;
  double ns(std::uint64_t ticks, std::uint64_t hits) const {
    const double corrected =
        static_cast<double>(ticks) - bracket_ticks * static_cast<double>(hits);
    return (corrected > 0 ? corrected : 0.0) * ns_per_tick * sample_scale;
  }
};

std::vector<ProfEntry> scaled_slots(const std::vector<ProfEntry>& raw) {
  std::vector<ProfEntry> out = raw;
  std::sort(out.begin(), out.end(), [](const ProfEntry& a, const ProfEntry& b) {
    return a.ns > b.ns || (a.ns == b.ns && a.name < b.name);
  });
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string pct(double num, double den) {
  if (den <= 0) return "0.0%";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * num / den);
  return buf;
}

}  // namespace

ProfReport Profiler::report() const {
  ProfReport r;
  r.sample_every = opts_.sample_every;
  r.iterations = iterations_;
  r.sampled_iterations = sampled_iterations_;
  r.rejected_iterations = rejected_iterations_;
  r.events = events_;
  r.wall_ns = wall_ns_;
  r.cpu_ns = cpu_ns_ > 0 ? cpu_ns_ : wall_ns_;
  Scaling sc;
  sc.ns_per_tick =
      ticks_span_ == 0 ? 0.0 : wall_ns_ / static_cast<double>(ticks_span_);
  // Extrapolate from *committed* samples only: rejected iterations carry no
  // span data, so dividing by the full sampled count would bias every
  // phase low by the rejection rate.
  const std::uint64_t committed = sampled_iterations_ - rejected_iterations_;
  sc.sample_scale = committed == 0 ? 1.0
                                   : static_cast<double>(iterations_) /
                                         static_cast<double>(committed);
  sc.bracket_ticks = bracket_ticks();
  r.ns_per_tick = sc.ns_per_tick;
  r.sample_scale = sc.sample_scale;
  r.bracket_ticks = sc.bracket_ticks;
  r.phases.resize(kProfPhaseCount);
  for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
    r.phases[i].name = kProfPhaseNames[i];
    r.phases[i].count = phase_hits_[i];
    r.phases[i].ns = sc.ns(phase_ticks_[i], phase_hits_[i]);
  }
  std::vector<ProfEntry> kinds;
  kinds.reserve(kind_slots_.size());
  for (const Slot& s : kind_slots_) {
    kinds.push_back(
        ProfEntry{std::string(s.name), s.count, sc.ns(s.ticks, s.count)});
  }
  r.kinds = scaled_slots(kinds);
  std::vector<ProfEntry> machines;
  machines.reserve(machine_slots_.size());
  for (const Slot& s : machine_slots_) {
    machines.push_back(
        ProfEntry{std::string(s.name), s.count, sc.ns(s.ticks, s.count)});
  }
  r.machines = scaled_slots(machines);
  return r;
}

void Profiler::export_metrics(MetricsRegistry& registry) const {
  const ProfReport r = report();
  registry.gauge("exec.prof.sample_every")
      .set(static_cast<double>(r.sample_every));
  registry.gauge("exec.prof.sample_scale").set(r.sample_scale);
  registry.gauge("exec.prof.iterations")
      .set(static_cast<double>(r.iterations));
  registry.gauge("exec.prof.sampled_iterations")
      .set(static_cast<double>(r.sampled_iterations));
  registry.gauge("exec.prof.rejected_iterations")
      .set(static_cast<double>(r.rejected_iterations));
  registry.gauge("exec.prof.events").set(static_cast<double>(r.events));
  registry.gauge("exec.prof.wall_ns").set(r.wall_ns);
  registry.gauge("exec.prof.cpu_ns").set(r.cpu_ns);
  registry.gauge("exec.prof.ns_per_tick").set(r.ns_per_tick);
  registry.gauge("exec.prof.bracket_ticks").set(r.bracket_ticks);
  const double total = r.phase_total_ns();
  registry.gauge("exec.prof.phase_total_ns").set(total);
  for (const ProfEntry& p : r.phases) {
    registry.gauge("exec.prof.phase." + p.name + ".ns").set(p.ns);
    registry.gauge("exec.prof.phase." + p.name + ".share")
        .set(total > 0 ? p.ns / total : 0.0);
  }
  for (const ProfEntry& k : r.kinds) {
    registry.gauge("exec.prof.kind." + k.name + ".ns").set(k.ns);
  }
}

void write_folded(std::ostream& os, const ProfReport& report) {
  // flamegraph.pl wants integer counts; ns are the natural unit here.
  const auto put = [&os](const std::string& stack, double ns) {
    const auto n = static_cast<std::uint64_t>(ns < 0 ? 0 : ns + 0.5);
    if (n == 0) return;
    os << stack << " " << n << "\n";
  };
  const auto& ph = report.phases;
  const auto ns = [&ph](ProfPhase p) {
    return ph[static_cast<std::size_t>(p)].ns;
  };
  put("exec;advance", ns(ProfPhase::kAdvance));
  put("exec;poll", ns(ProfPhase::kPoll));
  put("exec;pick", ns(ProfPhase::kPick));
  put("exec;event;route", ns(ProfPhase::kRoute));
  // Step time splits by kind; whatever the kind rows do not cover (events
  // on unsampled... none — kinds are fed from the same sampled spans, but
  // rounding can differ) stays on the parent frame as self time.
  double kind_ns = 0;
  for (const ProfEntry& k : report.kinds) {
    put("exec;event;step;" + k.name, k.ns);
    kind_ns += k.ns;
  }
  const double step_rest = ns(ProfPhase::kStep) - kind_ns;
  if (step_rest > 0.5) put("exec;event;step", step_rest);
  put("exec;event;record", ns(ProfPhase::kRecord));
  put("exec;event;probe", ns(ProfPhase::kProbe));
  put("exec;event;lint", ns(ProfPhase::kLint));
  put("exec;event;flight", ns(ProfPhase::kFlight));
  // A second root: the same step time re-keyed by machine type, so the
  // flame graph answers "which machine kind is expensive" independently of
  // the action-kind split above.
  for (const ProfEntry& m : report.machines) {
    put("machine;" + m.name, m.ns);
  }
}

void write_prof_table(std::ostream& os, const ProfReport& report) {
  const double total = report.phase_total_ns();
  const double events = static_cast<double>(report.events);
  os << "executor profile: " << report.events << " events, "
     << report.iterations << " iterations (" << report.sampled_iterations
     << " sampled, 1-in-" << report.sample_every;
  if (report.rejected_iterations > 0) {
    os << ", " << report.rejected_iterations << " rejected as preempted";
  }
  os << "), wall " << fmt(report.wall_ns / 1e6) << " ms, cpu "
     << fmt(report.cpu_ns / 1e6) << " ms, phases cover "
     << pct(total, report.cpu_ns) << " of cpu (timer self-cost "
     << fmt(report.bracket_ticks) << " ticks/bracket compensated)\n";
  os << "  phase    | ns/event | share  | sampled hits\n";
  for (const ProfEntry& p : report.phases) {
    if (p.count == 0) continue;
    char line[160];
    std::snprintf(line, sizeof line, "  %-8s | %8s | %6s | %llu\n",
                  p.name.c_str(),
                  fmt(events > 0 ? p.ns / events : 0.0).c_str(),
                  pct(p.ns, total).c_str(),
                  static_cast<unsigned long long>(p.count));
    os << line;
  }
  const auto top = [&](const char* title, const std::vector<ProfEntry>& v) {
    if (v.empty()) return;
    os << "  " << title << " (step ns/event):";
    std::size_t shown = 0;
    for (const ProfEntry& e : v) {
      if (shown++ == 6) {
        os << " ...";
        break;
      }
      os << " " << e.name << "="
         << fmt(events > 0 ? e.ns / events : 0.0);
    }
    os << "\n";
  };
  top("kinds", report.kinds);
  top("machines", report.machines);
}

ProfCounterProbe::ProfCounterProbe(const Profiler& prof,
                                   ChromeTraceWriter& writer, Duration cadence)
    : prof_(prof), writer_(writer), cadence_(cadence > 0 ? cadence : 1) {}

void ProfCounterProbe::on_run_begin(Time now) {
  next_sample_ = now + cadence_;
}

void ProfCounterProbe::on_time_advance(Time /*from*/, Time to) {
  if (to < next_sample_) return;
  sample(to);
  // Re-arm past `to` so a large jump emits one sample, not a backlog.
  while (next_sample_ <= to) next_sample_ += cadence_;
}

void ProfCounterProbe::sample(Time t) {
  for (std::size_t i = 0; i < kProfPhaseCount; ++i) {
    const auto ph = static_cast<ProfPhase>(i);
    const std::uint64_t ticks = prof_.phase_ticks(ph);
    if (ticks == 0 && prof_.phase_hits(ph) == 0) continue;
    writer_.counter("exec.prof ticks", kProfPhaseNames[i], t,
                    static_cast<double>(ticks));
  }
}

}  // namespace psc
