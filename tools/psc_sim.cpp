// psc-sim — command-line scenario runner.
//
// Runs one of the library's register/queue systems with configurable
// parameters, verifies the correctness property, prints latency stats, and
// optionally dumps the full event trace in the trace_io text format.
//
//   psc-sim <scenario> [--key=value ...]
//
// Scenarios:
//   rw-timed     algorithm L/S in the timed model
//   rw-clock     transformed S in the clock model (Theorem 6.5)
//   rw-sliced    the [10] baseline reconstruction
//   rw-mmt       the full Theorem 5.2 pipeline
//   queue        the replicated FIFO queue (total-order broadcast)
//   flood        flooding broadcast on a ring (time-based termination)
//
// Keys (defaults in brackets): nodes[3] ops[20] d1_us[20] d2_us[300]
// eps_us[50] c_us[40] ell_us[10] write_frac[0.5] drift[zigzag] seed[1]
// super[1] trace[""]   (drift: perfect|offset+|offset-|zigzag|random|
// opposing|disciplined). A key not listed here, or a numeric value that
// does not parse whole or lies out of its range, exits 2 naming the flag.
// So do values that each fit but together make no system (a d1_us above
// d2_us, a c_us the design bound cannot hold): the scenario is assembled
// once before it runs, and a failed assembly names the flags it read.
//
// Observability (docs/OBSERVABILITY.md):
//   --metrics-out=PATH   dump the run's metrics registry as JSONL
//   --chrome-trace=PATH  write a Chrome trace_event JSON of the run —
//                        open in chrome://tracing or ui.perfetto.dev
//   --causal-trace=PATH  build the happens-before DAG and dump it as JSONL;
//                        with --chrome-trace, message chains additionally
//                        become flow-event arrows in the trace
//   --critical-path=SINK longest real-time path into the last span named
//                        SINK (bare flag: the run's final span), with
//                        per-edge-kind latency attribution
//   --exec-stats         print the executor's scheduler self-metrics
//
// Conformance (docs/ANALYSIS.md):
//   --lint               lint the composition before the run (PSC0xx; any
//                        error aborts) and replay the run online through the
//                        invariant checker (PSC1xx) with the scenario's own
//                        eps/d1/d2/ell; errors fail the exit status
//   --certify            derive per-edge bound certificates from the
//                        declared signatures (PSC2xx) and cross-check every
//                        observed delivery against its *derived* window —
//                        tighter than --lint's declared d1/d2 envelope;
//                        errors fail the exit status
//
// Flight recorder (docs/OBSERVABILITY.md):
//   --flight[=PATH]      keep an always-on binary ring of recent events and
//                        write a .fly snapshot (default psc-flight.fly) at
//                        run end — or immediately, at the first PSC1xx
//                        error, when --lint is also set (dump-on-violation).
//                        Decode snapshots with psc-flight.
//   --flight-ring=N      ring capacity in records [8192]
//
// Microprofiler (docs/OBSERVABILITY.md):
//   --profile[=PATH]     sample the executor hot loop (per-phase cycle
//                        attribution) and print the self-time table at run
//                        end; a PATH value also writes folded stacks there
//                        (flamegraph.pl-compatible). With --chrome-trace the
//                        per-phase totals stream as counter tracks; with
//                        --metrics-out the exec.prof.* gauges join the dump.
//   --prof-sample=N      profile every N-th scheduler iteration [64]
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "algos/flood.hpp"
#include "analysis/bounds.hpp"
#include "analysis/trace_check.hpp"
#include "clock/discipline.hpp"
#include "core/trace_io.hpp"
#include "mmt/mmt_system.hpp"
#include "obs/flight.hpp"
#include "obs/instrument.hpp"
#include "obs/prof.hpp"
#include "runtime/system.hpp"
#include "rw/harness.hpp"
#include "rw/queue.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

using namespace psc;

namespace {

constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMaxCount = std::numeric_limits<int>::max();
// Microsecond flags become nanosecond Durations.
constexpr std::int64_t kMaxUs = kMaxInt64 / 1000;

// Every key print_usage lists. A numeric key's value must parse whole and
// lie in [lo, hi]; a text key takes any value (a bare flag reads "1").
struct KeySpec {
  enum Kind { kText, kInt, kReal };
  std::string_view name;
  Kind kind = kText;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};
constexpr KeySpec kKeys[] = {
    {"nodes", KeySpec::kInt, 1, kMaxCount},
    {"ops", KeySpec::kInt, 0, kMaxCount},
    {"d1_us", KeySpec::kInt, 0, kMaxUs},
    {"d2_us", KeySpec::kInt, 0, kMaxUs},
    {"eps_us", KeySpec::kInt, 0, kMaxUs},
    {"c_us", KeySpec::kInt, 0, kMaxUs},
    {"ell_us", KeySpec::kInt, 1, kMaxUs},
    {"margin_us", KeySpec::kInt, 0, kMaxUs},
    {"write_frac", KeySpec::kReal, 0, 1},
    {"drift"},
    {"seed", KeySpec::kInt, 0, kMaxInt64},
    {"super", KeySpec::kInt, 0, 1},
    {"trace"},
    {"metrics-out"},
    {"chrome-trace"},
    {"causal-trace"},
    {"critical-path"},
    {"exec-stats"},
    {"lint"},
    {"certify"},
    {"flight"},
    {"flight-ring", KeySpec::kInt, 1, kMaxCount},
    {"profile"},
    {"prof-sample", KeySpec::kInt, 1,
     std::numeric_limits<std::uint32_t>::max()},
};

// Whether `value` parses whole as a T in [lo, hi].
template <typename T>
bool in_range(const std::string& value, T lo, T hi) {
  T v{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  return ec == std::errc{} && ptr == end && v >= lo && v <= hi;
}

// Exits 2 naming the flag unless `key` is listed and its value fits.
void check_key(const std::string& key, const std::string& value) {
  for (const KeySpec& k : kKeys) {
    if (k.name != key) continue;
    const bool ok =
        k.kind == KeySpec::kText ||
        (k.kind == KeySpec::kInt ? in_range(value, k.lo, k.hi)
                                 : in_range(value, static_cast<double>(k.lo),
                                            static_cast<double>(k.hi)));
    if (ok) return;
    std::cerr << "psc-sim: --" << key << "=" << value << " is not "
              << (k.kind == KeySpec::kInt ? "an integer" : "a number")
              << " in [" << k.lo << ", " << k.hi << "]\n";
    std::exit(2);
  }
  std::cerr << "psc-sim: unknown flag --" << key
            << " (psc-sim --help lists them)\n";
  std::exit(2);
}

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int k = 2; k < argc; ++k) {
    std::string s = argv[k];
    if (s.rfind("--", 0) != 0) {
      std::cerr << "bad argument: " << s << "\n";
      std::exit(2);
    }
    const auto eq = s.find('=');
    std::string key = s.substr(2, eq == std::string::npos ? eq : eq - 2);
    std::string value = eq == std::string::npos ? "1" : s.substr(eq + 1);
    check_key(key, value);
    args.insert_or_assign(std::move(key), std::move(value));
  }
  return args;
}

std::int64_t geti(const std::map<std::string, std::string>& a,
                  const std::string& key, std::int64_t def) {
  auto it = a.find(key);
  return it == a.end() ? def : std::stoll(it->second);
}

double getd(const std::map<std::string, std::string>& a,
            const std::string& key, double def) {
  auto it = a.find(key);
  return it == a.end() ? def : std::stod(it->second);
}

std::string gets(const std::map<std::string, std::string>& a,
                 const std::string& key, const std::string& def) {
  auto it = a.find(key);
  return it == a.end() ? def : it->second;
}

// "--key=value" for a numeric flag with the value this run uses, marked
// when it is the default.
std::string shown(const std::map<std::string, std::string>& a,
                  const std::string& key, std::int64_t value) {
  return "--" + key + "=" + std::to_string(value) +
         (a.count(key) == 0 ? " (default)" : "");
}

std::int64_t in_us(Duration d) { return d / microseconds(1); }

// Runs `assemble`, a scenario's assembly without its run. A CheckError it
// throws comes from the flag values, so it exits 2 naming `flags` (the ones
// the assembly read, as shown() prints them), like a range error.
template <typename Assemble>
void check_assembles(const std::string& scenario,
                     const std::vector<std::string>& flags,
                     Assemble assemble) {
  try {
    assemble();
  } catch (const CheckError& e) {
    std::cerr << "psc-sim: " << scenario << " does not assemble from";
    for (const std::string& f : flags) std::cerr << ' ' << f;
    std::cerr << ": " << e.what() << "\n";
    std::exit(2);
  }
}

std::unique_ptr<DriftModel> make_drift(const std::string& name) {
  if (name == "perfect") return std::make_unique<PerfectDrift>();
  if (name == "offset+") return std::make_unique<OffsetDrift>(+1.0);
  if (name == "offset-") return std::make_unique<OffsetDrift>(-1.0);
  if (name == "zigzag") return std::make_unique<ZigzagDrift>(0.3);
  if (name == "random") {
    return std::make_unique<RandomDrift>(0.1, milliseconds(1));
  }
  if (name == "opposing") return std::make_unique<OpposingOffsetDrift>();
  if (name == "disciplined") {
    return std::make_unique<DisciplinedDrift>(DisciplineConfig{});
  }
  std::cerr << "unknown drift model: " << name << "\n";
  std::exit(2);
}

void print_latency(const char* label, const std::vector<Duration>& ls) {
  if (ls.empty()) {
    std::cout << "  " << label << ": none\n";
    return;
  }
  Samples s;
  for (const Duration l : ls) s.add(static_cast<double>(l));
  std::cout << "  " << label << ": n=" << s.count() << "  min="
            << format_time(static_cast<Time>(s.min())) << "  p50="
            << format_time(static_cast<Time>(s.percentile(50))) << "  p99="
            << format_time(static_cast<Time>(s.percentile(99))) << "  max="
            << format_time(static_cast<Time>(s.max())) << "\n";
}

// Observability plumbing shared by all scenarios: owns the output streams
// and the registry, hands the harness an ObsOptions, and writes the JSONL
// dump once the run is over.
class ObsSetup {
 public:
  explicit ObsSetup(const std::map<std::string, std::string>& args) {
    metrics_path_ = gets(args, "metrics-out", "");
    chrome_path_ = gets(args, "chrome-trace", "");
    causal_path_ = gets(args, "causal-trace", "");
    critical_sink_ = gets(args, "critical-path", "");
    exec_stats_ = args.count("exec-stats") > 0;
    if (!metrics_path_.empty()) opts_.registry = &registry_;
    if (!chrome_path_.empty()) {
      chrome_.open(chrome_path_);
      if (!chrome_) {
        std::cerr << "cannot open " << chrome_path_ << "\n";
        std::exit(2);
      }
      opts_.chrome_out = &chrome_;
    }
    // --critical-path implies building the DAG even without a dump path.
    if (!causal_path_.empty() || !critical_sink_.empty()) {
      opts_.causal = &causal_;
    }
    if (exec_stats_) opts_.exec_stats = true;
    if (args.count("flight") > 0) {
      flight_path_ = gets(args, "flight", "1");
      // Bare --flight parses as "1": fall back to the default snapshot name.
      if (flight_path_ == "1") flight_path_ = "psc-flight.fly";
      FlightOptions fo;
      if (args.count("flight-ring") > 0) {
        fo.ring_capacity = static_cast<std::size_t>(
            geti(args, "flight-ring",
                 static_cast<long long>(fo.ring_capacity)));
      }
      flight_.emplace(fo);
      opts_.flight = &*flight_;
    }
    if (args.count("profile") > 0) {
      profile_path_ = gets(args, "profile", "1");
      // Bare --profile parses as "1": table only, no folded-stack file.
      if (profile_path_ == "1") profile_path_.clear();
      ProfOptions po;
      po.sample_every = static_cast<std::uint32_t>(geti(
          args, "prof-sample", static_cast<std::int64_t>(po.sample_every)));
      prof_.emplace(po);
      opts_.profile = &*prof_;
    }
  }

  const ObsOptions* options() const {
    return opts_.enabled() ? &opts_ : nullptr;
  }

  // Attaches an online invariant checker (analysis/trace_check.hpp) to the
  // run. Call before handing options() to the harness. With --flight also
  // set, hooks dump-on-violation: the first PSC1xx error snapshots the ring
  // (which still holds the offending event) before the run continues.
  void enable_lint(const TraceCheckOptions& opts) {
    TraceCheckOptions lo = opts;
    if (flight_.has_value()) {
      lo.on_violation = [this](const Diagnostic& d) { dump_violation(d); };
    }
    lint_.emplace(lo);
    opts_.lint = &*lint_;
  }
  bool lint_enabled() const { return lint_.has_value(); }
  // False when the checker reported error-severity diagnostics, or the run
  // was cut short by the event cap (its trace is unfit to certify).
  bool lint_ok() const {
    if (!lint_.has_value()) return true;
    return !lint_->report().has_errors() && !capped_;
  }

  // Attaches a certificate cross-checker (analysis/bounds.hpp) to the run.
  // RunObserver::attach harvests the certificates from the composition as
  // assembled, so call before handing options() to the harness. With
  // --flight also set, the first PSC2xx error snapshots the ring.
  void enable_cert(const BoundCertOptions& bopts) {
    CertProbeOptions po;
    if (flight_.has_value()) {
      po.on_violation = [this](const Diagnostic& d) { dump_violation(d); };
    }
    cert_.emplace(bopts, po);
    opts_.cert = &*cert_;
  }
  bool cert_enabled() const { return cert_.has_value(); }
  bool cert_ok() const {
    if (!cert_.has_value()) return true;
    return !cert_->report().has_errors();
  }

  void finish(const TimedTrace& events, Time end_time,
              const ExecutorReport* report = nullptr) {
    if (report != nullptr && report->hit_event_cap) {
      capped_ = true;
      std::cerr << "warning: run hit the max_events cap before its horizon"
                   " — results cover a truncated prefix\n";
      // A truncated run is exactly what the recorder exists to explain:
      // snapshot the tail even though no invariant fired.
      if (flight_.has_value() && !flight_dumped_) dump_flight("event cap");
    }
    if (flight_.has_value()) {
      if (opts_.registry != nullptr) flight_->export_metrics(registry_);
      if (!flight_dumped_) dump_flight("run end");
    }
    if (prof_.has_value()) {
      const ProfReport prof_report = prof_->report();
      if (opts_.registry != nullptr) prof_->export_metrics(registry_);
      std::cout << "executor self-time (microprofiler):\n";
      write_prof_table(std::cout, prof_report);
      if (!profile_path_.empty()) {
        std::ofstream os(profile_path_);
        if (!os) {
          std::cerr << "cannot open " << profile_path_ << "\n";
          std::exit(2);
        }
        write_folded(os, prof_report);
        std::cout << "folded stacks written to " << profile_path_
                  << " (flamegraph.pl-compatible)\n";
      }
    }
    if (opts_.registry != nullptr) {
      registry_.gauge("run.end_time_ns").set(static_cast<double>(end_time));
      registry_.counter("run.events").add(events.size());
      std::ofstream os(metrics_path_);
      if (!os) {
        std::cerr << "cannot open " << metrics_path_ << "\n";
        std::exit(2);
      }
      registry_.write_jsonl(os);
      std::cout << "metrics (" << registry_.size() << " series) written to "
                << metrics_path_ << "\n";
    }
    if (!chrome_path_.empty()) {
      std::cout << "chrome trace written to " << chrome_path_
                << " (open in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (opts_.causal != nullptr) finish_causal(end_time);
    if (exec_stats_ && report != nullptr) print_exec_stats(report->stats);
    if (lint_.has_value()) {
      const DiagnosticReport& rep = lint_->report();
      if (rep.empty()) {
        std::cout << "lint: clean (" << events.size() << " events checked)\n";
      } else {
        std::cout << "lint:\n" << rep.to_text();
      }
    }
    if (cert_.has_value()) {
      const DiagnosticReport& rep = cert_->report();
      const BoundCert& cert = cert_->cert();
      std::cout << "certify: " << cert.hops.size() << " hop window(s), "
                << cert.paths.size() << " path certificate(s)";
      if (!rep.has_errors()) {
        std::cout << " — every observed delivery inside its derived window\n";
        if (!rep.empty()) std::cout << rep.to_text();
      } else {
        std::cout << "\n" << rep.to_text();
      }
    }
  }

 private:
  void dump_violation(const Diagnostic& d) {
    if (flight_dumped_) return;  // keep the window around the *first* error
    std::cerr << "flight: dumping on violation [" << to_string(d.code) << "] "
              << d.message << "\n";
    dump_flight("violation");
  }

  void dump_flight(const char* why) {
    flight_dumped_ = true;
    if (!flight_->dump(flight_path_)) {
      std::cerr << "cannot write " << flight_path_ << "\n";
      std::exit(2);
    }
    std::cout << "flight snapshot (" << flight_->retained() << " of "
              << flight_->total_recorded() << " events, " << why
              << ") written to " << flight_path_ << "\n";
  }

  void finish_causal(Time end_time) {
    const CausalDag& dag = causal_.dag();
    if (!causal_path_.empty()) {
      std::ofstream os(causal_path_);
      if (!os) {
        std::cerr << "cannot open " << causal_path_ << "\n";
        std::exit(2);
      }
      dag.write_jsonl(os);
      std::cout << "causal DAG (" << dag.size() << " spans, "
                << dag.process_count() << " processes) written to "
                << causal_path_ << "\n";
    }
    if (critical_sink_.empty() || dag.size() == 0) return;
    // Bare --critical-path means "the run's final span"; a value names the
    // sink action (last span with that name).
    const SpanId sink = critical_sink_ == "1"
                            ? static_cast<SpanId>(dag.size() - 1)
                            : dag.find_last(critical_sink_);
    if (sink == kNoSpan) {
      std::cerr << "critical-path: no span named " << critical_sink_ << "\n";
      std::exit(2);
    }
    const CriticalPath cp = dag.critical_path(sink);
    std::cout << "critical path to " << dag.name(sink) << " (span " << sink
              << "): " << cp.steps.size() << " steps, total "
              << format_time(cp.total)
              << (cp.total == dag.span(sink).time ? "" : " [INTERNAL ERROR]")
              << (dag.span(sink).time == end_time ? " == run end time"
                                                  : "")
              << "\n";
    for (std::size_t k = 0; k < kNumEdgeKinds; ++k) {
      if (cp.by_kind[k] == 0) continue;
      std::cout << "  " << to_string(static_cast<EdgeKind>(k)) << ": "
                << format_time(cp.by_kind[k]) << "\n";
    }
  }

  static void print_exec_stats(const ExecutorStats& s) {
    std::cout << "scheduler: events=" << s.events
              << " time_advances=" << s.time_advances << "\n"
              << "  dirty: flushes=" << s.dirty_flushes
              << " repolls=" << s.dirty_repolls << " peak=" << s.dirty_peak
              << " cache_hit_rate=" << s.cache_hit_rate() << "\n"
              << "  routing: fanout_inputs=" << s.fanout_inputs
              << " kind_hits=" << s.kind_hits
              << " kind_resolves=" << s.kind_resolves
              << " kind_memo_hits=" << s.kind_memo_hits << "\n"
              << "  wheel: inserts=" << s.wheel.inserts
              << " due=" << s.wheel.due << " cascades=" << s.wheel.cascades
              << "\n";
  }

  MetricsRegistry registry_;
  CausalTraceProbe causal_;
  std::optional<InvariantProbe> lint_;
  std::optional<CertificateProbe> cert_;
  std::optional<FlightRecorder> flight_;
  std::optional<Profiler> prof_;
  std::ofstream chrome_;
  std::string metrics_path_, chrome_path_, causal_path_, critical_sink_;
  std::string flight_path_, profile_path_;
  bool exec_stats_ = false;
  bool flight_dumped_ = false;
  bool capped_ = false;
  ObsOptions opts_;
};

void maybe_dump(const std::string& path, const TimedTrace& events) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(2);
  }
  const bool jsonl =
      path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  if (jsonl) {
    write_trace_jsonl(os, events);
  } else {
    write_trace(os, events);
  }
  std::cout << "trace (" << events.size() << " events) written to " << path
            << "\n";
}

int run_register(const std::string& scenario,
                 const std::map<std::string, std::string>& args) {
  RwRunConfig cfg;
  cfg.num_nodes = static_cast<int>(geti(args, "nodes", 3));
  cfg.ops_per_node = static_cast<int>(geti(args, "ops", 20));
  cfg.d1 = microseconds(geti(args, "d1_us", 20));
  cfg.d2 = microseconds(geti(args, "d2_us", 300));
  cfg.eps = microseconds(geti(args, "eps_us", 50));
  cfg.c = microseconds(geti(args, "c_us", 40));
  cfg.write_fraction = getd(args, "write_frac", 0.5);
  cfg.super = geti(args, "super", 1) != 0;
  cfg.seed = static_cast<std::uint64_t>(geti(args, "seed", 1));
  cfg.think_max = microseconds(300);
  cfg.horizon = seconds(60);
  const auto drift = make_drift(gets(args, "drift", "zigzag"));
  const Duration ell = microseconds(geti(args, "ell_us", 10));
  ObsSetup obs(args);
  if (args.count("lint") > 0) {
    cfg.validate = true;
    TraceCheckOptions lo;
    lo.d1 = cfg.d1;
    lo.d2 = cfg.d2;
    lo.num_nodes = cfg.num_nodes;
    if (scenario != "rw-timed") lo.eps = cfg.eps;
    if (scenario == "rw-mmt") lo.ell = ell;
    obs.enable_lint(lo);
  }
  if (args.count("certify") > 0) {
    BoundCertOptions bo;
    bo.d1 = cfg.d1;
    bo.d2 = cfg.d2;
    if (scenario != "rw-timed") bo.eps = cfg.eps;
    if (scenario == "rw-mmt") bo.ell = ell;
    obs.enable_cert(bo);
  }
  cfg.obs = obs.options();

  std::vector<std::string> flags = {shown(args, "nodes", cfg.num_nodes),
                                    shown(args, "d1_us", in_us(cfg.d1)),
                                    shown(args, "d2_us", in_us(cfg.d2)),
                                    shown(args, "eps_us", in_us(cfg.eps)),
                                    shown(args, "c_us", in_us(cfg.c))};
  if (scenario == "rw-mmt") flags.push_back(shown(args, "ell_us", in_us(ell)));
  check_assembles(scenario, flags, [&] {
    if (scenario == "rw-timed") {
      assemble_rw_timed(cfg);
    } else if (scenario == "rw-clock") {
      assemble_rw_clock(cfg, *drift);
    } else if (scenario == "rw-sliced") {
      assemble_rw_sliced(cfg, *drift);
    } else {
      assemble_rw_mmt(cfg, *drift, ell, cfg.num_nodes + 2);
    }
  });

  RwRunResult run;
  if (scenario == "rw-timed") {
    run = run_rw_timed(cfg);
  } else if (scenario == "rw-clock") {
    run = run_rw_clock(cfg, *drift);
  } else if (scenario == "rw-sliced") {
    run = run_rw_sliced(cfg, *drift);
  } else {  // rw-mmt
    run = run_rw_mmt(cfg, *drift, ell, cfg.num_nodes + 2);
  }

  std::cout << scenario << ": " << run.ops.size() << " operations, "
            << run.events.size() << " events\n";
  print_latency("reads ", latencies(run.ops, Operation::Kind::kRead));
  print_latency("writes", latencies(run.ops, Operation::Kind::kWrite));
  const auto lin = check_linearizable(run.ops, cfg.v0);
  std::cout << "linearizability: " << (lin.ok ? "VERIFIED" : "VIOLATED")
            << " (" << lin.states << " states)\n";
  maybe_dump(gets(args, "trace", ""), run.events);
  obs.finish(run.events, run.end_time, &run.report);
  if (!obs.lint_ok() || !obs.cert_ok()) return 1;
  return lin.ok ? 0 : 1;
}

int run_queue(const std::map<std::string, std::string>& args) {
  QueueRunConfig cfg;
  cfg.num_nodes = static_cast<int>(geti(args, "nodes", 3));
  cfg.ops_per_node = static_cast<int>(geti(args, "ops", 15));
  cfg.d1 = microseconds(geti(args, "d1_us", 20));
  cfg.d2 = microseconds(geti(args, "d2_us", 300));
  cfg.eps = microseconds(geti(args, "eps_us", 50));
  cfg.enq_fraction = getd(args, "write_frac", 0.5);
  cfg.seed = static_cast<std::uint64_t>(geti(args, "seed", 1));
  cfg.think_max = microseconds(300);
  cfg.horizon = seconds(60);
  const auto drift = make_drift(gets(args, "drift", "zigzag"));
  ObsSetup obs(args);
  if (args.count("lint") > 0) {
    cfg.validate = true;
    TraceCheckOptions lo;
    lo.d1 = cfg.d1;
    lo.d2 = cfg.d2;
    lo.eps = cfg.eps;
    lo.num_nodes = cfg.num_nodes;
    obs.enable_lint(lo);
  }
  if (args.count("certify") > 0) {
    BoundCertOptions bo;
    bo.d1 = cfg.d1;
    bo.d2 = cfg.d2;
    bo.eps = cfg.eps;
    obs.enable_cert(bo);
  }
  cfg.obs = obs.options();
  check_assembles("queue",
                  {shown(args, "nodes", cfg.num_nodes),
                   shown(args, "d1_us", in_us(cfg.d1)),
                   shown(args, "d2_us", in_us(cfg.d2)),
                   shown(args, "eps_us", in_us(cfg.eps))},
                  [&] { assemble_queue_clock(cfg, *drift); });
  const auto run = run_queue_clock(cfg, *drift);
  std::cout << "queue: " << run.ops.size() << " operations, "
            << run.events.size() << " events\n";
  const auto lin = check_linearizable_queue(run.ops);
  std::cout << "queue linearizability: "
            << (lin.ok ? "VERIFIED" : "VIOLATED") << " (" << lin.states
            << " states)\n";
  maybe_dump(gets(args, "trace", ""), run.events);
  obs.finish(run.events, ltime(run.events), &run.report);
  if (!obs.lint_ok() || !obs.cert_ok()) return 1;
  return lin.ok ? 0 : 1;
}

// Flooding broadcast on a ring — the paper's cleanest causal-chain example:
// the critical path into COMPLETE is the hop chain source → ... → last
// node, so --causal-trace / --critical-path demonstrations read well.
int run_flood(const std::map<std::string, std::string>& args) {
  const int n = static_cast<int>(geti(args, "nodes", 3));
  const Duration d1 = microseconds(geti(args, "d1_us", 20));
  const Duration d2 = microseconds(geti(args, "d2_us", 300));
  const Duration margin = microseconds(geti(args, "margin_us", 10));
  const auto seed = static_cast<std::uint64_t>(geti(args, "seed", 1));
  ObsSetup obs(args);
  const bool lint = args.count("lint") > 0;
  if (lint) {
    TraceCheckOptions lo;
    lo.d1 = d1;
    lo.d2 = d2;
    lo.num_nodes = n;
    obs.enable_lint(lo);
  }
  if (args.count("certify") > 0) {
    BoundCertOptions bo;
    bo.d1 = d1;
    bo.d2 = d2;
    obs.enable_cert(bo);
  }

  Executor exec({.horizon = seconds(60), .seed = seed, .validate = lint});
  check_assembles("flood",
                  {shown(args, "nodes", n), shown(args, "d1_us", in_us(d1)),
                   shown(args, "d2_us", in_us(d2)),
                   shown(args, "margin_us", in_us(margin))},
                  [&] {
                    const Graph g = Graph::ring(n);
                    ChannelConfig cc;
                    cc.d1 = d1;
                    cc.d2 = d2;
                    cc.seed = seed ^ 0xf100d;
                    add_timed_system(
                        exec, g, cc,
                        make_flood_nodes(g, /*source=*/0, /*payload=*/42,
                                         /*hops_bound=*/g.n, d2, margin));
                  });
  RunObserver observer(obs.options());
  observer.add_channel_latency(d1, d2);
  observer.attach(exec);
  const ExecutorReport report = exec.run();

  const bool safe = flood_safe(exec.events(), n);
  std::cout << "flood: " << n << " nodes, " << report.steps
            << " events, end time " << format_time(report.end_time) << "\n";
  std::cout << "flood safety: " << (safe ? "VERIFIED" : "VIOLATED") << "\n";
  maybe_dump(gets(args, "trace", ""), exec.events());
  obs.finish(exec.events(), report.end_time, &report);
  if (!obs.lint_ok() || !obs.cert_ok()) return 1;
  return safe ? 0 : 1;
}

// Every flag psc-sim understands, one line each — kept in sync with the
// header comment and docs/OBSERVABILITY.md (a test greps this output for
// the observability flags, so new obs features must be listed here).
void print_usage(std::ostream& os) {
  os << "usage: psc-sim <scenario> [--key=value ...]\n"
        "\n"
        "scenarios:\n"
        "  rw-timed             algorithm L/S in the timed model\n"
        "  rw-clock             transformed S in the clock model (Thm 6.5)\n"
        "  rw-sliced            the [10] baseline reconstruction\n"
        "  rw-mmt               the full Theorem 5.2 pipeline\n"
        "  queue                replicated FIFO queue (total-order bcast)\n"
        "  flood                flooding broadcast on a ring\n"
        "\n"
        "scenario keys (defaults in brackets):\n"
        "  --nodes=N            number of nodes [3]\n"
        "  --ops=N              operations per node [20 register, 15 queue]\n"
        "  --d1_us=N --d2_us=N  channel delay bounds in microseconds "
        "[20/300]\n"
        "  --eps_us=N           clock synchronization bound [50]\n"
        "  --c_us=N             register lease parameter C [40]\n"
        "  --ell_us=N           MMT step-time bound [10]\n"
        "  --margin_us=N        flood termination margin [10]\n"
        "  --write_frac=F       write (enqueue) fraction [0.5]\n"
        "  --drift=NAME         perfect|offset+|offset-|zigzag|random|\n"
        "                       opposing|disciplined [zigzag]\n"
        "  --seed=N             RNG seed [1]\n"
        "  --super=0|1          superposition register layout [1]\n"
        "  --trace=PATH         dump the event trace (.jsonl -> JSONL)\n"
        "\n"
        "observability (docs/OBSERVABILITY.md):\n"
        "  --metrics-out=PATH   dump the run's metrics registry as JSONL\n"
        "  --chrome-trace=PATH  Chrome trace_event JSON of the run (open in\n"
        "                       chrome://tracing or ui.perfetto.dev)\n"
        "  --causal-trace=PATH  happens-before DAG as JSONL; with\n"
        "                       --chrome-trace adds message flow arrows\n"
        "  --critical-path[=S]  longest real-time path into the last span\n"
        "                       named S (bare: the run's final span)\n"
        "  --exec-stats         print the scheduler's self-metrics\n"
        "  --lint               static PSC0xx lint + online PSC1xx invariant\n"
        "                       replay; errors fail the exit status\n"
        "  --certify            static PSC2xx bound certificates + online\n"
        "                       check of observed deliveries against their\n"
        "                       derived windows; errors fail the exit status\n"
        "  --flight[=PATH]      always-on binary ring of recent events; .fly\n"
        "                       snapshot at run end or on first violation\n"
        "                       when --lint is set [psc-flight.fly]\n"
        "  --flight-ring=N      ring capacity in records [8192]\n"
        "  --profile[=PATH]     per-phase executor self-time table at run\n"
        "                       end; PATH also gets flamegraph.pl-compatible\n"
        "                       folded stacks; with --chrome-trace adds\n"
        "                       per-phase counter tracks\n"
        "  --prof-sample=N      profile every N-th scheduler iteration "
        "[64]\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string scenario = argv[1];
  if (scenario == "--help" || scenario == "-h" || scenario == "help") {
    print_usage(std::cout);
    return 0;
  }
  const auto args = parse_args(argc, argv);
  if (scenario == "queue") return run_queue(args);
  if (scenario == "flood") return run_flood(args);
  if (scenario == "rw-timed" || scenario == "rw-clock" ||
      scenario == "rw-sliced" || scenario == "rw-mmt") {
    return run_register(scenario, args);
  }
  std::cerr << "unknown scenario: " << scenario << "\n";
  return 2;
}
