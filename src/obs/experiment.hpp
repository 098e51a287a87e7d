// Declarative parameter-sweep experiment runner (tools/psc-report).
//
// A SweepConfig names a grid of model parameters (eps, delta, d1, d2, c,
// ell) x seeds x algorithms; run_sweep() executes every cell through the
// Section 6 harnesses with the bound-slack observatory attached
// (obs/observatory.hpp, one MetricsRegistry per cell aggregating all its
// seeds) and collects the Section 6.3 cost table: p50/p99 read and write
// latency (plus p99 channel-delivery latency from the channel.latency_ns
// histogram) against the paper's bound, per algorithm:
//
//   L         Lemma 6.1/6.2: algorithm L in the timed model
//             (read <= c + delta, write <= d2 - c)
//   S         Theorem 6.5: algorithm S through Simulation 1 on eps-clocks
//             (read <= 2 eps + delta + c, write <= d2 + 2 eps - c)
//   baseline  the [10] reconstruction on the same clocks, u = 2 eps
//             (read <= 4u, write <= d2 + 3u)
//   mmt       Theorem 5.2 pipeline with boundmap [0, ell], k = 1
//
// Every cell also reports the minimum observed bound slack — the signed
// distance to the governing theoretical bound, negative iff some bound was
// violated — which the psc-report CLI turns into an exit-status gate.
//
// Results render as a Markdown table (write_markdown, or spliced between
// `<!-- psc-report:begin -->` / `<!-- psc-report:end -->` markers by
// update_markdown_region) and as JSONL rows (write_json, BENCH_rw.json)
// for cross-PR diffing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "core/time.hpp"
#include "obs/prof.hpp"

namespace psc {

struct SweepConfig {
  // Workload (shared by every cell).
  int num_nodes = 3;
  int ops_per_node = 20;
  double write_fraction = 0.5;
  Duration think_max = microseconds(300);
  Time horizon = seconds(30);
  std::string drift = "zigzag";  // psc-sim's drift-model names
  // The grid. Cells with d1 > d2 are skipped. `ell` applies to the mmt
  // algorithm only (other algorithms ignore it; with "mmt" listed the ell
  // axis multiplies its cells).
  std::vector<std::string> algos = {"L", "S", "baseline"};
  std::vector<Duration> eps = {microseconds(50)};
  std::vector<Duration> delta = {1};
  std::vector<Duration> d1 = {microseconds(20)};
  std::vector<Duration> d2 = {microseconds(300)};
  std::vector<Duration> c = {0};
  std::vector<Duration> ell;
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  // Attach the sampling microprofiler (obs/prof.hpp) to every cell's runs
  // and append the aggregated executor self-time table to the report.
  // Config key `profile = 1`, or psc-report's --profile flag.
  bool profile = false;
};

// Text format: one `key = value[, value...]` per line; '#' starts a
// comment. Durations are given in microseconds (keys end in _us), the
// horizon in milliseconds. Unknown keys are a CheckError (catch typos, not
// silently run the default grid).
//   nodes = 3            ops_per_node = 20      write_fraction = 0.5
//   think_max_us = 300   horizon_ms = 30000     drift = zigzag
//   algos = L, S, baseline
//   eps_us = 25, 50      delta_us = 1           d1_us = 20
//   d2_us = 300          c_us = 0, 100          ell_us = 10
//   seeds = 1, 2, 3
SweepConfig parse_sweep_config(std::istream& is);
SweepConfig load_sweep_config(const std::string& path);

struct CellResult {
  std::string algo;
  Duration eps = 0, delta = 0, d1 = 0, d2 = 0, c = 0;
  Duration ell = -1;  // -1 for non-mmt cells
  int seeds = 0;
  std::size_t reads = 0, writes = 0, events = 0;
  // Latency percentiles in ns (NaN when that kind had no samples).
  double read_p50 = 0, read_p99 = 0, write_p50 = 0, write_p99 = 0;
  // p99 channel-delivery latency in ns across the cell's seeds, from the
  // cell registry's channel.latency_ns histogram (NaN when no deliveries
  // were measured; interpolated in its bucket and clamped to the observed
  // [min, max]).
  double chan_p99 = std::numeric_limits<double>::quiet_NaN();
  // The paper's per-operation worst-case bound for this cell.
  Duration bound_read = 0, bound_write = 0;
  bool linearizable = true;
  // Bound-slack observatory summary, min over the cell's seeds.
  Duration min_slack = kTimeMax;
  Duration min_slack_ceps = kTimeMax;
  Duration min_slack_delivery = kTimeMax;
  Duration min_slack_thm47 = kTimeMax;
  Duration min_slack_mmt = kTimeMax;
  std::uint64_t slack_violations = 0;
};

struct SweepResult {
  SweepConfig config;
  std::vector<CellResult> cells;
  // Aggregated executor self-time across every cell and seed (profiled is
  // false — and the report empty — unless config.profile was set).
  ProfReport prof;
  bool profiled = false;

  // Minimum slack across all cells (kTimeMax when nothing was measured).
  Duration min_slack() const;
  bool has_negative_slack() const { return min_slack() < 0; }
  bool all_linearizable() const;
};

SweepResult run_sweep(const SweepConfig& cfg);

// The Section 6.3 cost table plus a slack summary, as GitHub Markdown.
void write_markdown(const SweepResult& result, std::ostream& os);
// One JSONL row per cell (BENCH_rw.json).
void write_json(const SweepResult& result, std::ostream& os);

// Splices `body` between the `<!-- psc-report:begin -->` and
// `<!-- psc-report:end -->` marker lines of `text` (both markers must be
// present; CheckError otherwise) and returns the result.
std::string update_markdown_region(const std::string& text,
                                   const std::string& body);

}  // namespace psc
