// Tests for the bound-slack observatory (obs/observatory.hpp) and the
// sweep/experiment runner behind tools/psc-report (obs/experiment.hpp).
//
// The slack tests drive the system to a bound's *edge* and check the
// observatory reads (approximately) zero there: a channel with d1 == d2
// forces every delivery onto both edges of the band at once, and
// OffsetDrift(+1.0) ramps a clock to exactly +eps skew. Anything negative
// would be a bound violation — the same condition PSC101/102 report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "clock/trajectory.hpp"
#include "obs/experiment.hpp"
#include "obs/instrument.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "rw/harness.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

// --- TimeSeries -----------------------------------------------------------

TEST(TimeSeries, SamplesEveryRegisteredMetricKind) {
  MetricsRegistry reg;
  Counter& c = reg.counter("events");
  Gauge& g = reg.gauge("depth");
  Histogram& h = reg.histogram("lat", Histogram::linear_bounds(0, 100, 10));

  TimeSeries ts(reg);
  c.add(3);
  g.set(1.5);
  ts.sample(microseconds(10));
  c.add(2);
  g.set(2.5);
  h.add(50);
  ts.sample(microseconds(20));

  EXPECT_EQ(ts.samples_taken(), 2u);
  // counter + gauge + 3 histogram sub-series.
  EXPECT_EQ(ts.series_count(), 5u);

  const auto counter_pts = ts.points("events");
  ASSERT_EQ(counter_pts.size(), 2u);
  EXPECT_EQ(counter_pts[0].t, microseconds(10));
  EXPECT_EQ(counter_pts[0].v, 3.0);
  EXPECT_EQ(counter_pts[1].t, microseconds(20));
  EXPECT_EQ(counter_pts[1].v, 5.0);

  const auto gauge_pts = ts.points("depth");
  ASSERT_EQ(gauge_pts.size(), 2u);
  EXPECT_EQ(gauge_pts[1].v, 2.5);

  // Histogram expands to .count/.p50/.p99; the first sample saw it empty,
  // so its percentile is NaN (satellite: empty percentiles are NaN).
  const auto count_pts = ts.points("lat.count");
  ASSERT_EQ(count_pts.size(), 2u);
  EXPECT_EQ(count_pts[0].v, 0.0);
  EXPECT_EQ(count_pts[1].v, 1.0);
  const auto p50_pts = ts.points("lat.p50");
  ASSERT_EQ(p50_pts.size(), 2u);
  EXPECT_TRUE(std::isnan(p50_pts[0].v));
  EXPECT_DOUBLE_EQ(p50_pts[1].v, 50.0);

  EXPECT_TRUE(ts.points("no.such.series").empty());
}

TEST(TimeSeries, RingKeepsLastWindowSamplesOldestFirst) {
  MetricsRegistry reg;
  Counter& c = reg.counter("n");
  TimeSeries ts(reg, {.cadence = microseconds(1), .window = 4});
  for (int k = 1; k <= 7; ++k) {
    c.add();
    ts.sample(microseconds(k));
  }
  const auto pts = ts.points("n");
  ASSERT_EQ(pts.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(pts[k].t, microseconds(4 + k));
    EXPECT_EQ(pts[k].v, 4.0 + k);
  }
  EXPECT_EQ(ts.dropped("n"), 3u);
  EXPECT_EQ(ts.dropped("unknown"), 0u);
}

TEST(TimeSeries, JsonlRendersPointsAndNullForNonFinite) {
  MetricsRegistry reg;
  reg.counter("n").add(7);
  reg.histogram("lat", Histogram::linear_bounds(0, 100, 4));  // stays empty
  TimeSeries ts(reg, {.cadence = microseconds(5), .window = 8});
  ts.sample(microseconds(5));

  std::ostringstream os;
  ts.write_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("{\"type\":\"timeseries\",\"name\":\"n\","
                     "\"cadence_ns\":5000,\"dropped\":0,"
                     "\"points\":[[5000,7]]}"),
            std::string::npos)
      << out;
  // Empty-histogram percentiles are NaN -> null in the export.
  EXPECT_NE(out.find("\"name\":\"lat.p50\""), std::string::npos);
  EXPECT_NE(out.find("[5000,null]"), std::string::npos) << out;
}

TEST(TimeSeriesProbe, SamplesOnCadenceBoundariesPlusEndpoints) {
  MetricsRegistry reg;
  reg.counter("n");
  TimeSeries ts(reg, {.cadence = microseconds(10), .window = 64});
  TimeSeriesProbe probe(ts);

  probe.on_run_begin(0);
  probe.on_time_advance(0, microseconds(35));  // one jump across 3 boundaries
  probe.on_run_end(microseconds(35));

  const auto pts = ts.points("n");
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_EQ(pts[0].t, 0);
  EXPECT_EQ(pts[1].t, microseconds(10));
  EXPECT_EQ(pts[2].t, microseconds(20));
  EXPECT_EQ(pts[3].t, microseconds(30));
  EXPECT_EQ(pts[4].t, microseconds(35));
}

// --- BoundSlackProbe on the Section 6 harnesses ---------------------------

RwRunConfig slack_cfg(std::uint64_t seed) {
  RwRunConfig cfg;
  cfg.num_nodes = 3;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(250);
  cfg.eps = microseconds(40);
  cfg.c = microseconds(30);
  cfg.ops_per_node = 10;
  cfg.think_max = microseconds(300);
  cfg.horizon = seconds(5);
  cfg.seed = seed;
  return cfg;
}

// d1 == d2 puts every delivery on both edges of the [d1, d2] band at once:
// the adversary has no room, so delivery slack must be *exactly* zero.
TEST(BoundSlack, DeliverySlackExactlyZeroWhenChannelBandDegenerates) {
  MetricsRegistry reg;
  ObsOptions oo;
  oo.registry = &reg;
  oo.slack = true;

  RwRunConfig cfg = slack_cfg(11);
  cfg.d1 = cfg.d2 = microseconds(200);
  cfg.obs = &oo;

  const RwRunResult run = run_rw_timed(cfg);
  EXPECT_FALSE(run.ops.empty());
  EXPECT_EQ(run.min_slack_delivery, 0);
  EXPECT_EQ(run.min_slack, 0);
  EXPECT_EQ(run.slack_violations, 0u);
  // Timed model: no clocks, so skew/Thm-4.7/MMT slack is never measured.
  EXPECT_EQ(run.min_slack_ceps, kTimeMax);
  EXPECT_EQ(run.min_slack_thm47, kTimeMax);
  EXPECT_EQ(run.min_slack_mmt, kTimeMax);

  const Histogram* h = reg.find_histogram("slack.delivery_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0u);
  EXPECT_EQ(h->min(), 0.0);
  EXPECT_EQ(h->max(), 0.0);
  EXPECT_EQ(reg.find_counter("slack.violations")->value(), 0u);
}

// OffsetDrift(+1.0) ramps each clock to skew exactly +eps and holds it
// there: the C_eps envelope is driven to its edge, so the minimum skew
// slack over the run must be ~zero — and never negative.
TEST(BoundSlack, CepsSlackReachesZeroAtFullOffsetSkew) {
  MetricsRegistry reg;
  ObsOptions oo;
  oo.registry = &reg;
  oo.slack = true;

  RwRunConfig cfg = slack_cfg(7);
  cfg.obs = &oo;
  OffsetDrift drift(+1.0);

  const RwRunResult run = run_rw_clock(cfg, drift);
  EXPECT_FALSE(run.ops.empty());
  ASSERT_LT(run.min_slack_ceps, kTimeMax);  // skew was measured
  EXPECT_GE(run.min_slack_ceps, 0);
  EXPECT_LE(run.min_slack_ceps, microseconds(1));
  EXPECT_GE(run.min_slack, 0);
  EXPECT_EQ(run.slack_violations, 0u);
  // Clock-model run through Simulation 1 also measures delivery and the
  // Theorem 4.7 release window.
  EXPECT_LT(run.min_slack_delivery, kTimeMax);
  EXPECT_GE(run.min_slack_delivery, 0);
  EXPECT_LT(run.min_slack_thm47, kTimeMax);
  EXPECT_GE(run.min_slack_thm47, 0);

  // Per-node gauges exist for each of the three nodes.
  for (int node = 0; node < cfg.num_nodes; ++node) {
    const Gauge* g =
        reg.find_gauge("slack.ceps_ns.node" + std::to_string(node));
    ASSERT_NE(g, nullptr) << "node " << node;
    EXPECT_GT(g->samples(), 0u);
  }
}

// MMT pipeline: tick/step gaps measured against the [0, ell] boundmap.
TEST(BoundSlack, MmtRunMeasuresBoundmapSlack) {
  MetricsRegistry reg;
  ObsOptions oo;
  oo.registry = &reg;
  oo.slack = true;

  RwRunConfig cfg = slack_cfg(3);
  cfg.obs = &oo;
  PerfectDrift drift;

  const RwRunResult run = run_rw_mmt(cfg, drift, microseconds(10), /*k=*/1);
  EXPECT_FALSE(run.ops.empty());
  ASSERT_LT(run.min_slack_mmt, kTimeMax);
  EXPECT_GE(run.min_slack_mmt, 0);
  EXPECT_GE(run.min_slack, 0);
  EXPECT_EQ(run.slack_violations, 0u);
}

// The slack observatory is opt-in: without ObsOptions::slack the harness
// must leave the registry free of slack metrics and the result summary
// unmeasured.
TEST(BoundSlack, OffByDefaultLeavesRegistryUntouched) {
  MetricsRegistry reg;
  ObsOptions oo;
  oo.registry = &reg;  // slack stays false

  RwRunConfig cfg = slack_cfg(5);
  cfg.obs = &oo;
  const RwRunResult run = run_rw_timed(cfg);
  EXPECT_EQ(run.min_slack, kTimeMax);
  EXPECT_EQ(reg.find_histogram("slack.delivery_ns"), nullptr);
  EXPECT_EQ(reg.find_counter("slack.violations"), nullptr);
}

// ChannelLatencyProbe and the slack probe read the same window-meter
// delivery legs: they count the same deliveries, and the channel probe
// books a [d1, d2] violation exactly when delivery slack goes negative.
TEST(BoundSlack, ChannelLatencyAndDeliverySlackCountTheSameDeliveries) {
  for (const bool clocked : {false, true}) {
    SCOPED_TRACE(clocked ? "rw_clock" : "rw_timed");
    MetricsRegistry reg;
    ObsOptions oo;
    oo.registry = &reg;
    oo.slack = true;

    RwRunConfig cfg = slack_cfg(13);
    cfg.obs = &oo;
    const RwRunResult run =
        clocked ? run_rw_clock(cfg, PerfectDrift()) : run_rw_timed(cfg);
    EXPECT_FALSE(run.ops.empty());

    const Counter* delivered = reg.find_counter("channel.delivered");
    const Counter* violations = reg.find_counter("channel.latency_violations");
    const Histogram* slack = reg.find_histogram("slack.delivery_ns");
    ASSERT_NE(delivered, nullptr);
    ASSERT_NE(violations, nullptr);
    ASSERT_NE(slack, nullptr);
    EXPECT_GT(delivered->value(), 0u);
    EXPECT_EQ(delivered->value(), slack->count());
    EXPECT_EQ(violations->value() == 0, run.min_slack_delivery >= 0);
  }
}

// End-to-end: a TimeSeries wired through ObsOptions samples the slack
// histograms as they fill; the final boundary sample must agree with the
// registry's end-of-run state.
TEST(BoundSlack, TimeSeriesTracksSlackHistogramDuringRun) {
  MetricsRegistry reg;
  TimeSeries ts(reg, {.cadence = milliseconds(1), .window = 256});
  ObsOptions oo;
  oo.registry = &reg;
  oo.slack = true;
  oo.timeseries = &ts;

  RwRunConfig cfg = slack_cfg(9);
  cfg.obs = &oo;
  const RwRunResult run = run_rw_timed(cfg);
  EXPECT_FALSE(run.ops.empty());

  EXPECT_GT(ts.samples_taken(), 2u);
  const auto pts = ts.points("slack.delivery_ns.count");
  ASSERT_FALSE(pts.empty());
  const Histogram* h = reg.find_histogram("slack.delivery_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(pts.back().v, static_cast<double>(h->count()));
  // Counts are cumulative, so the sampled series is non-decreasing.
  for (std::size_t k = 1; k < pts.size(); ++k) {
    EXPECT_LE(pts[k - 1].v, pts[k].v);
  }
}

// --- experiment runner ----------------------------------------------------

TEST(Experiment, ParseSweepConfigRoundTrips) {
  std::istringstream is(
      "# comment\n"
      "nodes = 4\n"
      "ops_per_node = 6\n"
      "write_fraction = 0.25\n"
      "think_max_us = 100\n"
      "horizon_ms = 2000\n"
      "drift = perfect\n"
      "algos = L, S\n"
      "eps_us = 10, 20\n"
      "delta_us = 1\n"
      "d1_us = 5\n"
      "d2_us = 50   # trailing comment\n"
      "c_us = 0, 5\n"
      "seeds = 1, 2, 3\n");
  const SweepConfig cfg = parse_sweep_config(is);
  EXPECT_EQ(cfg.num_nodes, 4);
  EXPECT_EQ(cfg.ops_per_node, 6);
  EXPECT_DOUBLE_EQ(cfg.write_fraction, 0.25);
  EXPECT_EQ(cfg.think_max, microseconds(100));
  EXPECT_EQ(cfg.horizon, milliseconds(2000));
  EXPECT_EQ(cfg.drift, "perfect");
  EXPECT_EQ(cfg.algos, (std::vector<std::string>{"L", "S"}));
  EXPECT_EQ(cfg.eps, (std::vector<Duration>{microseconds(10), microseconds(20)}));
  EXPECT_EQ(cfg.c, (std::vector<Duration>{0, microseconds(5)}));
  EXPECT_EQ(cfg.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Experiment, ParseSweepConfigRejectsBadInput) {
  {
    std::istringstream is("no_such_key = 1\n");
    EXPECT_THROW(parse_sweep_config(is), CheckError);
  }
  {
    std::istringstream is("algos = quux\n");
    EXPECT_THROW(parse_sweep_config(is), CheckError);
  }
  {
    // mmt without an ell axis is an error, not a silent empty sweep.
    std::istringstream is("algos = mmt\n");
    EXPECT_THROW(parse_sweep_config(is), CheckError);
  }
  {
    std::istringstream is("drift = warp9\n");
    EXPECT_THROW(parse_sweep_config(is), CheckError);
  }
}

SweepConfig tiny_sweep() {
  SweepConfig cfg;
  cfg.num_nodes = 2;
  cfg.ops_per_node = 4;
  cfg.horizon = seconds(5);
  cfg.drift = "zigzag";
  cfg.algos = {"L"};
  cfg.eps = {microseconds(40)};
  cfg.delta = {1};
  cfg.d1 = {microseconds(20)};
  cfg.d2 = {microseconds(250)};
  cfg.c = {microseconds(30)};
  cfg.seeds = {1, 2};
  return cfg;
}

TEST(Experiment, RunSweepProducesGatedCells) {
  const SweepConfig cfg = tiny_sweep();
  const SweepResult result = run_sweep(cfg);
  ASSERT_EQ(result.cells.size(), 1u);
  const CellResult& cell = result.cells[0];
  EXPECT_EQ(cell.algo, "L");
  EXPECT_EQ(cell.seeds, 2);
  EXPECT_GT(cell.reads + cell.writes, 0u);
  EXPECT_GT(cell.events, 0u);
  EXPECT_TRUE(cell.linearizable);
  // Lemma 6.1/6.2 bounds for L.
  EXPECT_EQ(cell.bound_read, cell.c + cell.delta);
  EXPECT_EQ(cell.bound_write, cell.d2 - cell.c);
  // The channel.latency_ns histogram measured deliveries: its p99 sits in
  // the configured [d1, d2] band (the estimate is clamped to the observed
  // [min, max]).
  ASSERT_TRUE(std::isfinite(cell.chan_p99));
  EXPECT_GE(cell.chan_p99, static_cast<double>(cell.d1));
  EXPECT_LE(cell.chan_p99, static_cast<double>(cell.d2));
  // Slack was measured and the gate passes.
  ASSERT_LT(result.min_slack(), kTimeMax);
  EXPECT_GE(result.min_slack(), 0);
  EXPECT_FALSE(result.has_negative_slack());
  EXPECT_TRUE(result.all_linearizable());
  EXPECT_EQ(cell.slack_violations, 0u);
}

TEST(Experiment, SkipsCellsWithInvertedChannelBand) {
  SweepConfig cfg = tiny_sweep();
  cfg.d1 = {microseconds(20), microseconds(400)};  // 400 > d2 = 250
  const SweepResult result = run_sweep(cfg);
  EXPECT_EQ(result.cells.size(), 1u);  // the inverted cell was skipped
}

TEST(Experiment, MarkdownAndJsonRenderTheCostTable) {
  const SweepResult result = run_sweep(tiny_sweep());

  std::ostringstream md;
  write_markdown(result, md);
  const std::string table = md.str();
  EXPECT_NE(table.find("| algo |"), std::string::npos);
  EXPECT_NE(table.find("| L |"), std::string::npos);
  EXPECT_NE(table.find("chan p99"), std::string::npos);
  EXPECT_NE(table.find("min slack"), std::string::npos);
  EXPECT_NE(table.find("all cells linearizable: yes"), std::string::npos);

  std::ostringstream js;
  write_json(result, js);
  const std::string json = js.str();
  EXPECT_EQ(json.rfind("{\"bench\":\"psc_report\",\"algo\":\"L\"", 0), 0u);
  EXPECT_NE(json.find("\"min_slack_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"chan_p99_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"linearizable\":true"), std::string::npos);
  EXPECT_NE(json.find("\"slack_violations\":0"), std::string::npos);
  // One JSONL row per cell.
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'),
            static_cast<std::ptrdiff_t>(result.cells.size()));
}

TEST(Experiment, UpdateMarkdownRegionSplicesBetweenMarkers) {
  const std::string doc =
      "# Title\n"
      "intro\n"
      "<!-- psc-report:begin -->\n"
      "old table\n"
      "<!-- psc-report:end -->\n"
      "outro\n";
  const std::string out = update_markdown_region(doc, "new table\n");
  EXPECT_EQ(out,
            "# Title\n"
            "intro\n"
            "<!-- psc-report:begin -->\n"
            "new table\n"
            "<!-- psc-report:end -->\n"
            "outro\n");
  // Idempotent: splicing the same body again changes nothing.
  EXPECT_EQ(update_markdown_region(out, "new table\n"), out);

  EXPECT_THROW(update_markdown_region("no markers here", "x"), CheckError);
  EXPECT_THROW(
      update_markdown_region("<!-- psc-report:begin -->\nonly begin", "x"),
      CheckError);
}

}  // namespace
}  // namespace psc
