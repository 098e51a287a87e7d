// psc_bench: one checked end-to-end iteration of a psc benchmark workload.
//
//   psc_bench --workload flood_ring|rw_clock_reads|rw_mmt_writes
//             --seed N [--trace 0|1]
//
// An iteration assembles the workload's system through the public assembly
// functions, lints and certifies it, runs it with the workload's online
// checkers attached and checks its outputs. It prints one JSON object,
//
//   {"values": {"<metric>": <number>, ...}, "checks": {"<check>": <bool>, ...}}
//
// Every layer is timed from outside, around the calls into its public
// functions; nothing inside src/ is instrumented. With --trace 1 the
// executor's sampling microprofiler is attached and every online checker
// sits behind a forwarding probe that times the calls made into it, which
// yields the per-layer breakdown at the cost of the tracing overhead that
// run.py reports as obs.trace_overhead.
//
// run.py runs many iterations, each in its own process so that peak RSS is
// the workload's alone, and aggregates them. README.md names the workloads
// and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algos/flood.hpp"
#include "analysis/bounds.hpp"
#include "analysis/lint.hpp"
#include "analysis/trace_check.hpp"
#include "channel/channel.hpp"
#include "clock/trajectory.hpp"
#include "mmt/mmt_system.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/prof.hpp"
#include "runtime/composite.hpp"
#include "runtime/executor.hpp"
#include "runtime/system.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "rw/spec.hpp"
#include "transform/buffers.hpp"
#include "transform/clock_system.hpp"
#include "util/rng.hpp"

namespace {

using namespace psc;
using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// --- workloads ---------------------------------------------------------------

enum class Model { kFlood, kClock, kMmt };

struct Workload {
  std::string_view name;
  Model model;
  int nodes;
  // rw workloads: closed-loop ops per client and their write share.
  int ops = 0;
  double write_fraction = 0;
  // Set-ups per iteration; the fastest is reported. Cheap set-ups repeat so
  // that one timer hiccup cannot move the figure.
  int setup_reps = 1;
};

constexpr Workload kWorkloads[] = {
    {.name = "flood_ring", .model = Model::kFlood, .nodes = 32768,
     .setup_reps = 1},
    {.name = "rw_clock_reads", .model = Model::kClock, .nodes = 8,
     .ops = 1000, .write_fraction = 0.2, .setup_reps = 5},
    {.name = "rw_mmt_writes", .model = Model::kMmt, .nodes = 4, .ops = 1000,
     .write_fraction = 0.8, .setup_reps = 5},
};

// flood_ring: 62 waves over the ring, ~6.1M events.
constexpr int kFloodWaves = 62;
constexpr Duration kFloodD1 = microseconds(50);
constexpr Duration kFloodD2 = microseconds(200);

// rw workloads: Algorithm S over a complete graph with self-loops.
constexpr Duration kEps = microseconds(50);
constexpr Duration kRwD1 = microseconds(20);
constexpr Duration kRwD2 = microseconds(300);
constexpr Duration kC = microseconds(40);
constexpr Duration kThinkMax = microseconds(200);
constexpr Duration kEll = microseconds(5);
constexpr double kDriftRho = 0.25;
constexpr Time kRwHorizon = seconds(30);

// --- one iteration's output ----------------------------------------------------

class Record {
 public:
  void put(std::string name, double value) {
    values_.emplace_back(std::move(name), value);
  }
  void check(std::string name, bool ok) {
    checks_.emplace_back(std::move(name), ok);
  }

  void write_json(std::ostream& os) const {
    os << std::setprecision(17) << "{\"values\": {";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << '"' << values_[i].first
         << "\": " << values_[i].second;
    }
    os << "}, \"checks\": {";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << '"' << checks_[i].first
         << "\": " << (checks_[i].second ? "true" : "false");
    }
    os << "}}\n";
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, bool>> checks_;
};

// --- traced runs: forwarding probe ---------------------------------------------

// Stands in for one online checker on the executor's probe list, forwards
// every call to it unchanged and times the event and run-end calls. The
// profiler books it to the same phase as the checker it wraps.
class TimedProbe final : public Probe {
 public:
  explicit TimedProbe(Probe& inner) : inner_(inner) {}

  std::string_view profile_name() const override {
    return inner_.profile_name();
  }
  bool observes_events() const override { return inner_.observes_events(); }
  bool observes_time() const override { return inner_.observes_time(); }
  Time next_time_interest() const override {
    return inner_.next_time_interest();
  }
  void on_run_begin(Time now) override { inner_.on_run_begin(now); }
  void on_event(const TimedEvent& e, const Machine& owner) override {
    const auto t0 = SteadyClock::now();
    inner_.on_event(e, owner);
    event_s_ += seconds_since(t0);
    ++events_;
  }
  void on_time_advance(Time from, Time to) override {
    inner_.on_time_advance(from, to);
  }
  void on_run_end(Time now) override {
    const auto t0 = SteadyClock::now();
    inner_.on_run_end(now);
    end_s_ += seconds_since(t0);
  }

  double event_ns() const { return ratio(event_s_ * 1e9, double(events_)); }
  double event_s() const { return event_s_; }
  double end_s() const { return end_s_; }

 private:
  Probe& inner_;
  double event_s_ = 0;
  std::uint64_t events_ = 0;
  double end_s_ = 0;
};

// --- assembly and static analysis ------------------------------------------------

struct System {
  std::unique_ptr<Executor> exec;
  std::vector<Channel*> channels;
  std::vector<const FloodNode*> flood_nodes;
  std::vector<RwClient*> clients;
  std::vector<std::shared_ptr<const ClockTrajectory>> trajectories;
  std::vector<const ReceiveBuffer*> buffers;
  std::vector<const MmtNode*> mmt_nodes;
  std::vector<const TickSource*> ticks;
  DiagnosticReport lint;
  std::unique_ptr<CertificateProbe> cert;
  std::size_t cert_derivation_errors = 0;
};

struct SetupTimes {
  double trajectory_s = 0;
  double assemble_s = 0;
  double lint_s = 0;
  double certify_s = 0;
  double total() const { return trajectory_s + assemble_s + lint_s + certify_s; }
};

void collect_buffers(const Machine& node_composite, System& sys) {
  const auto& comp = dynamic_cast<const CompositeMachine&>(node_composite);
  for (std::size_t k = 0; k < comp.size(); ++k) {
    if (const auto* rb = dynamic_cast<const ReceiveBuffer*>(&comp.member(k))) {
      sys.buffers.push_back(rb);
    }
  }
}

void assemble_flood(const Workload& w, std::uint64_t seed, System& sys) {
  sys.exec = std::make_unique<Executor>(
      ExecutorOptions{.horizon = seconds(3600),
                      .seed = seed,
                      .max_events = 100'000'000,
                      .record_events = false});
  const Graph g = Graph::ring(w.nodes);
  ChannelConfig cc;
  cc.d1 = kFloodD1;
  cc.d2 = kFloodD2;
  cc.seed = seed ^ 0xe5e5;
  const SystemHandles h = add_timed_system(
      *sys.exec, g, cc,
      make_flood_nodes(g, /*source=*/0, /*payload=*/0xf100d,
                       /*hops_bound=*/g.n, cc.d2, /*margin=*/1, kFloodWaves,
                       /*wave_gap=*/cc.d2));
  sys.channels = h.channels;
  for (Machine* m : h.nodes) {
    sys.flood_nodes.push_back(&dynamic_cast<const FloodNode&>(*m));
  }
}

// Assembles the rw system the way rw/harness.cpp does (same per-component
// seed derivation), but through the public assembly functions so each step
// can be timed on its own.
void assemble_rw(const Workload& w, std::uint64_t seed, System& sys,
                 SetupTimes& t) {
  const bool mmt = w.model == Model::kMmt;
  auto t0 = SteadyClock::now();
  const ZigzagDrift drift(kDriftRho);
  Rng seeder(seed ^ 0xc1c1c1c1ULL);
  for (int i = 0; i < w.nodes; ++i) {
    Rng r = seeder.split();
    auto traj = std::make_shared<ClockTrajectory>(
        drift.generate(kEps, kRwHorizon, r));
    traj->validate(kRwHorizon);
    sys.trajectories.push_back(std::move(traj));
  }
  t.trajectory_s = seconds_since(t0);

  t0 = SteadyClock::now();
  sys.exec = std::make_unique<Executor>(
      ExecutorOptions{.horizon = kRwHorizon,
                      .seed = seed,
                      .max_events = 100'000'000,
                      .record_events = false});
  ClientOptions co;
  co.num_ops = w.ops;
  co.think_min = 0;
  co.think_max = kThinkMax;
  co.write_fraction = w.write_fraction;
  for (auto& c : make_clients(w.nodes, co, seed ^ 0xc7, &sys.clients)) {
    sys.exec->add_owned(std::move(c));
  }
  const int k = w.nodes + 2;  // Theorem 5.2 output-rate constant
  RwParams p;
  p.num_nodes = w.nodes;
  p.c = kC;
  p.delta = 1;
  p.d2_prime = mmt ? mmt_d2(kRwD2, kEps, k, kEll) : timed_d2(kRwD2, kEps);
  p.two_eps = 2 * kEps;  // Algorithm S
  const Graph g = Graph::complete_with_self_loops(w.nodes);
  ChannelConfig cc;
  cc.d1 = kRwD1;
  cc.d2 = kRwD2;
  cc.seed = seed ^ 0xe5e5;
  if (mmt) {
    MmtConfig mc;
    mc.ell = kEll;
    mc.seed = seed ^ 0x4d4d54;
    const MmtSystemHandles h =
        add_mmt_system(*sys.exec, g, cc, make_rw_algorithms(w.nodes, p),
                       sys.trajectories, mc);
    sys.channels = h.channels;
    for (MmtNode* n : h.nodes) {
      sys.mmt_nodes.push_back(n);
      collect_buffers(n->inner(), sys);
    }
    sys.ticks.assign(h.ticks.begin(), h.ticks.end());
    // The tick/step machinery never quiesces: stop once the clients are done.
    sys.exec->stop_when([clients = sys.clients] {
      return std::all_of(clients.begin(), clients.end(),
                         [](const RwClient* c) { return c->finished(); });
    });
  } else {
    const ClockSystemHandles h =
        add_clock_system(*sys.exec, g, cc, make_rw_algorithms(w.nodes, p),
                         sys.trajectories);
    sys.channels = h.channels;
    for (ClockedMachine* n : h.nodes) collect_buffers(n->inner(), sys);
  }
  t.assemble_s = seconds_since(t0);
}

SetupTimes setup(const Workload& w, std::uint64_t seed, System& sys) {
  SetupTimes t;
  LintOptions lo;
  BoundCertOptions bo;
  if (w.model == Model::kFlood) {
    const auto t0 = SteadyClock::now();
    assemble_flood(w, seed, sys);
    t.assemble_s = seconds_since(t0);
    bo.d1 = kFloodD1;
    bo.d2 = kFloodD2;
  } else {
    assemble_rw(w, seed, sys, t);
    lo.eps = kEps;
    bo.eps = kEps;
    bo.d1 = kRwD1;
    bo.d2 = kRwD2;
    if (w.model == Model::kMmt) bo.ell = kEll;
  }
  auto t0 = SteadyClock::now();
  sys.lint = lint_composition(sys.exec->composition(), lo);
  t.lint_s = seconds_since(t0);

  t0 = SteadyClock::now();
  sys.cert = std::make_unique<CertificateProbe>(bo);
  sys.cert->harvest(sys.exec->composition());
  t.certify_s = seconds_since(t0);
  sys.cert_derivation_errors = sys.cert->report().errors();
  return t;
}

// --- one checked iteration -----------------------------------------------------

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void iterate(const Workload& w, std::uint64_t seed, bool traced,
             Record& rec) {
  const bool rw = w.model != Model::kFlood;
  const bool mmt = w.model == Model::kMmt;

  // Set up setup_reps times; the last system is the one that runs.
  System sys;
  std::vector<SetupTimes> setups;
  SteadyClock::time_point verdict_t0;
  for (int r = 0; r < w.setup_reps; ++r) {
    sys = System{};
    verdict_t0 = SteadyClock::now();
    setups.push_back(setup(w, seed, sys));
  }

  // Online checkers (rw only): invariants incl. PSC106 order, per-edge
  // certificates (PSC206) and bound slack, each either attached as is or,
  // when traced, behind a timing forwarder.
  MetricsRegistry registry;
  std::optional<InvariantProbe> invariant;
  std::optional<BoundSlackProbe> slack;
  std::vector<std::unique_ptr<TimedProbe>> timed;
  if (rw) {
    TraceCheckOptions to;
    to.eps = kEps;
    to.d1 = kRwD1;
    to.d2 = kRwD2;
    to.ell = mmt ? kEll : -1;  // PSC105 in the MMT model
    to.num_nodes = w.nodes;
    invariant.emplace(to);
    slack.emplace(registry, SlackOptions{.eps = kEps,
                                         .d1 = kRwD1,
                                         .d2 = kRwD2,
                                         .ell = mmt ? kEll : -1});
    for (Probe* p : {static_cast<Probe*>(&*invariant),
                     static_cast<Probe*>(sys.cert.get()),
                     static_cast<Probe*>(&*slack)}) {
      if (traced) {
        timed.push_back(std::make_unique<TimedProbe>(*p));
        p = timed.back().get();
      }
      sys.exec->attach_probe(p);
    }
  }
  std::optional<Profiler> profiler;
  if (traced) {
    profiler.emplace();
    sys.exec->attach_profiler(&*profiler);
  }

  const auto run_t0 = SteadyClock::now();
  const ExecutorReport report = sys.exec->run();
  const double run_s = seconds_since(run_t0);

  LinearizabilityResult lin;
  double spec_s = 0;
  std::uint64_t writes = 0;
  std::size_t ops = 0;
  if (rw) {
    const std::vector<Operation> history = collect_operations(sys.clients);
    const auto t0 = SteadyClock::now();
    lin = check_linearizable(history, /*v0=*/0);
    spec_s = seconds_since(t0);
    ops = history.size();
    writes = static_cast<std::uint64_t>(
        std::count_if(history.begin(), history.end(), [](const Operation& o) {
          return o.kind == Operation::Kind::kWrite;
        }));
  }
  const double verdict_s = seconds_since(verdict_t0);

  // Output checks.
  const ExecutorStats& st = report.stats;
  rec.check("lint.clean", !sys.lint.has_errors());
  rec.check("cert.derivation_clean", sys.cert_derivation_errors == 0);
  rec.check("runtime.no_event_cap", !report.hit_event_cap);
  std::uint64_t deliveries = 0;
  if (rw) {
    const std::size_t psc206 =
        sys.cert->report().count(DiagCode::kOutsideCertificate);
    rec.check("invariant.clean", !invariant->report().has_errors());
    rec.check("cert.no_psc206", psc206 == 0);
    rec.check("slack.no_violations", slack->violations() == 0);
    rec.check("rw.clients_finished",
              std::all_of(sys.clients.begin(), sys.clients.end(),
                          [](const RwClient* c) { return c->finished(); }));
    rec.check("rw.spec.linearizable", lin.ok);
    rec.check("rw.spec.conclusive", lin.conclusive);
  } else {
    bool all = true;
    for (const FloodNode* n : sys.flood_nodes) {
      deliveries += static_cast<std::uint64_t>(n->delivered_waves());
      all = all && n->delivered_waves() == kFloodWaves;
    }
    rec.check("flood.all_delivered", all);
    rec.check("runtime.quiesced", report.quiesced);
  }

  // End-to-end figures.
  const double events = static_cast<double>(st.events);
  const SetupTimes& best_setup = *std::min_element(
      setups.begin(), setups.end(),
      [](const SetupTimes& a, const SetupTimes& b) {
        return a.total() < b.total();
      });
  rec.put("setup_s", best_setup.total());
  rec.put("run_s", run_s);
  rec.put("ns_per_event", ratio(run_s * 1e9, events));
  rec.put("verdict_s", verdict_s);
  rec.put("peak_rss_mb", peak_rss_mib());

  // Set-up layers, from the fastest set-up.
  rec.put("runtime.assemble_s", best_setup.assemble_s);
  rec.put("analysis.lint_s", best_setup.lint_s);
  rec.put("analysis.certify_s", best_setup.certify_s);
  rec.put("clock.trajectory_s", best_setup.trajectory_s);
  std::uint64_t breakpoints = 0;
  for (const auto& t : sys.trajectories) breakpoints += t->points().size();
  rec.put("clock.breakpoints", double(breakpoints));

  // Runtime counters.
  rec.put("runtime.events", events);
  rec.put("runtime.time_advances", double(st.time_advances));
  rec.put("runtime.kind_resolves", double(st.kind_resolves));
  rec.put("runtime.kind_memo_hits", double(st.kind_memo_hits));
  rec.put("runtime.fanout_inputs", double(st.fanout_inputs));
  rec.put("runtime.route_classify", double(st.route_classify));
  rec.put("runtime.dirty_repolls", double(st.dirty_repolls));
  rec.put("runtime.cache_hit_rate", st.cache_hit_rate());
  rec.put("runtime.wheel.inserts", double(st.wheel.inserts));
  rec.put("runtime.wheel.stale_drops", double(st.wheel.stale_drops));
  rec.put("runtime.wheel.cascades", double(st.wheel.cascades));

  // Model layers.
  std::uint64_t sent = 0;
  std::uint64_t reordered = 0;
  for (const Channel* c : sys.channels) {
    sent += c->stats().sent;
    reordered += c->stats().reordered;
  }
  rec.put("channel.sent", double(sent));
  rec.put("channel.reordered", double(reordered));
  std::uint64_t received = 0;
  std::uint64_t buffered = 0;
  for (const ReceiveBuffer* b : sys.buffers) {
    received += b->stats().received;
    buffered += b->stats().buffered;
  }
  rec.put("transform.received", double(received));
  rec.put("transform.buffered_frac", ratio(double(buffered), double(received)));
  std::uint64_t ticks = 0;
  std::uint64_t steps = 0;
  std::uint64_t outputs = 0;
  for (const TickSource* t : sys.ticks) ticks += t->ticks();
  for (const MmtNode* n : sys.mmt_nodes) {
    steps += n->stats().steps;
    outputs += n->stats().outputs;
  }
  rec.put("mmt.ticks", double(ticks));
  rec.put("mmt.steps", double(steps));
  rec.put("mmt.output_frac", ratio(double(outputs), double(steps)));
  rec.put("rw.ops", double(ops));
  rec.put("rw.writes", double(writes));
  rec.put("algos.flood.deliveries", double(deliveries));
  rec.put("rw.spec.check_s", spec_s);
  rec.put("rw.spec.states", double(lin.states));
  rec.put("rw.spec.ns_per_state", ratio(spec_s * 1e9, double(lin.states)));

  // Analysis and observability verdict figures.
  std::size_t errors = sys.lint.errors() + sys.cert->report().errors();
  if (invariant) errors += invariant->report().errors();
  rec.put("analysis.errors", double(errors));
  const bool slack_measured = slack && slack->min_slack() != kTimeMax;
  rec.put("obs.min_slack_ns",
          slack_measured ? double(slack->min_slack()) : 0.0);

  if (!traced) return;

  // Per-layer run times from the profiler's phase table and the forwarders.
  const ProfReport prof = profiler->report();
  const std::pair<const char*, ProfPhase> phases[] = {
      {"runtime.phase.advance_ns", ProfPhase::kAdvance},
      {"runtime.phase.poll_ns", ProfPhase::kPoll},
      {"runtime.phase.pick_ns", ProfPhase::kPick},
      {"runtime.phase.route_ns", ProfPhase::kRoute},
      {"runtime.phase.step_ns", ProfPhase::kStep},
      {"runtime.phase.record_ns", ProfPhase::kRecord},
  };
  for (const auto& [name, ph] : phases) {
    rec.put(name, prof.phase_ns_per_event(ph));
  }
  double checker_s = 0;
  double run_end_s = 0;
  for (const auto& tp : timed) {
    checker_s += tp->event_s() + tp->end_s();
    run_end_s += tp->end_s();
  }
  rec.put("runtime.self_ns", ratio((run_s - checker_s) * 1e9, events));
  rec.put("runtime.unattributed_ns",
          ratio((run_s - run_end_s) * 1e9 - prof.phase_total_ns(), events));
  // timed[] holds invariant, cert, slack in that order when rw.
  rec.put("analysis.invariant.observe_ns", rw ? timed[0]->event_ns() : 0.0);
  rec.put("analysis.invariant.finalize_s", rw ? timed[0]->end_s() : 0.0);
  rec.put("analysis.cert.observe_ns", rw ? timed[1]->event_ns() : 0.0);
  rec.put("obs.slack.observe_ns", rw ? timed[2]->event_ns() : 0.0);
}

int usage() {
  std::cerr << "usage: psc_bench --workload "
               "flood_ring|rw_clock_reads|rw_mmt_writes --seed N "
               "[--trace 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::optional<std::uint64_t> seed;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == value) workload = &w;
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      traced = value == "1";
    } else {
      return usage();
    }
  }
  if (workload == nullptr || !seed || argc % 2 == 0) return usage();

  Record rec;
  iterate(*workload, *seed, traced, rec);
  rec.write_json(std::cout);
  return 0;
}
