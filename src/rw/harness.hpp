// End-to-end run harness for the Section 6 register systems.
//
// One configuration drives four system assemblies:
//   run_rw_timed        D_T(G, L/S, E_[d1,d2])          (Lemmas 6.1/6.2)
//   run_rw_clock        D_C(G, S^c_eps, E^c_[d1,d2])    (Theorem 6.5) —
//                       algorithm designed against d2' = d2 + 2 eps and
//                       pushed through Simulation 1
//   run_rw_sliced       baseline [10] reconstruction, native clock model
//   run_rw_clock_nobuffer  ablation: clock-driven algorithm with *no*
//                       Simulation-1 buffers (motivates the transformation)
//
// Every run uses closed-loop clients (alternation condition holds), unique
// written values, seeded nondeterminism, and returns the completed
// operations plus the full event log for trace-level analyses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "clock/trajectory.hpp"
#include "runtime/executor.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "rw/spec.hpp"
#include "transform/buffers.hpp"

namespace psc {

struct ObsOptions;  // obs/instrument.hpp
class ClockedMachine;  // runtime/clocked.hpp
class MmtNode;         // mmt/mmt_node.hpp

struct RwRunConfig {
  int num_nodes = 3;
  // Physical channel bounds of the model the system runs in.
  Duration d1 = 0;
  Duration d2 = milliseconds(1);
  // Clock accuracy (ignored by run_rw_timed).
  Duration eps = microseconds(100);
  // Algorithm parameters.
  Duration c = 0;
  Duration delta = 1;
  bool super = true;  // true => algorithm S (2eps read wait); false => L
  // Workload.
  int ops_per_node = 20;
  Duration think_min = 0;
  Duration think_max = milliseconds(1);
  double write_fraction = 0.5;
  std::int64_t v0 = 0;
  // Run control.
  std::uint64_t seed = 1;
  Time horizon = seconds(30);
  // Lint the composition before the run (ExecutorOptions::validate): any
  // error-severity PSC0xx diagnostic aborts via PSC_CHECK.
  bool validate = false;
  // Observability (see obs/instrument.hpp). When set, the harness attaches
  // the built-in probes that apply to the assembly being run — clock skew
  // vs eps, channel latency vs [d1, d2], Simulation-1 buffer occupancy and
  // hold times, MMT tick-to-action latency — and, when the options carry a
  // chrome_out stream, emits a Chrome trace of the run. Null => no probes,
  // no overhead.
  const ObsOptions* obs = nullptr;
};

struct RwRunResult {
  std::vector<Operation> ops;        // completed client operations
  TimedTrace events;                 // full event log (hidden included)
  Time end_time = 0;
  // Full executor report (end_time duplicated for convenience); carries
  // the scheduler's ExecutorStats self-metrics.
  ExecutorReport report;
  ReceiveBufferStats buffer_totals;  // aggregated over all receive buffers
                                     // (clock-model runs only)
  // Node clock trajectories (clock/MMT-model runs only) — needed by the
  // Theorem 4.6 gamma_alpha analyses.
  std::vector<std::shared_ptr<const ClockTrajectory>> trajectories;
  // Bound-slack observatory summary (obs/observatory.hpp), populated only
  // when cfg.obs has `slack` set and a registry: minimum signed distance to
  // each governing bound over the whole run (kTimeMax = not measured) and
  // the count of negative-slack samples (bound violations).
  Duration min_slack_ceps = kTimeMax;
  Duration min_slack_delivery = kTimeMax;
  Duration min_slack_thm47 = kTimeMax;
  Duration min_slack_mmt = kTimeMax;
  Duration min_slack = kTimeMax;  // min over the four kinds
  std::uint64_t slack_violations = 0;
};

// One register system assembled into its executor but not run, with no
// observers attached (cfg.obs is not read). The run_rw_timed / clock / mmt
// / sliced harnesses below assemble through these, then attach their
// observers and run, so a caller that needs the executor itself (to run it
// on another loop, or attach its own probes) gets the same system from the
// same per-component seeds.
struct RwAssembly {
  std::unique_ptr<Executor> exec;
  std::vector<RwClient*> clients;  // index = node id; owned by exec
  // Node clocks (clock/MMT models only).
  std::vector<std::shared_ptr<const ClockTrajectory>> trajectories;
  std::vector<ClockedMachine*> clock_nodes;  // clock model only
  std::vector<MmtNode*> mmt_nodes;           // MMT model only
};

RwAssembly assemble_rw_timed(const RwRunConfig& cfg);
RwAssembly assemble_rw_clock(const RwRunConfig& cfg, const DriftModel& drift);
RwAssembly assemble_rw_mmt(const RwRunConfig& cfg, const DriftModel& drift,
                           Duration ell, int k);
RwAssembly assemble_rw_sliced(const RwRunConfig& cfg,
                              const DriftModel& drift);

// Timed model. The algorithm's design bound d2' equals the physical d2.
RwRunResult run_rw_timed(const RwRunConfig& cfg);

// Clock model via Simulation 1. The algorithm's design bound is
// d2' = d2 + 2 eps (Theorem 4.7's translation); node clocks are generated
// by `drift` (one independent trajectory per node).
RwRunResult run_rw_clock(const RwRunConfig& cfg, const DriftModel& drift);

// Baseline reconstruction in the clock model, u = 2 eps.
RwRunResult run_rw_sliced(const RwRunConfig& cfg, const DriftModel& drift);

// MMT model via Theorem 5.2 (both simulations composed): step/tick bound
// ell, output-rate constant k. The algorithm's design bound is
// d2' = d2 + 2 eps + k ell; responses may shift into the future by at most
// k ell + 2 eps + 3 ell relative to the clock-model run.
RwRunResult run_rw_mmt(const RwRunConfig& cfg, const DriftModel& drift,
                       Duration ell, int k);

// Ablation: clock-driven algorithm, plain channels, no S/R buffers.
RwRunResult run_rw_clock_nobuffer(const RwRunConfig& cfg,
                                  const DriftModel& drift);

// Paper bounds (Section 6), for benches and tests to compare against.
// Timed model (Lemma 6.1/6.2): read = c + delta (+ 2eps for S),
// write = d2' - c with d2' = d2.
Duration bound_read_timed(const RwRunConfig& cfg);
Duration bound_write_timed(const RwRunConfig& cfg);
// Clock model (Theorem 6.5): read = 2eps + delta + c, write = d2 + 2eps - c,
// in *clock* time; real-time latency additionally varies by at most the
// drift the trajectory accumulates over the operation (<= 2eps).
Duration bound_read_clock(const RwRunConfig& cfg);
Duration bound_write_clock(const RwRunConfig& cfg);
// Baseline ([10], as reported in Section 6.3 with u = 2eps): read 4u,
// write d2 + 3u.
Duration bound_read_sliced(const RwRunConfig& cfg);
Duration bound_write_sliced(const RwRunConfig& cfg);

}  // namespace psc
