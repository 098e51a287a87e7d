// Causal-tracing regression suite (obs/causal.hpp): the happens-before
// DAG built by CausalTraceProbe must
//   - pin hand-computable vector clocks and critical paths on a flood with
//     fixed channel delays (every channel edge = the fixed delay, and the
//     critical path's per-kind attribution telescopes to the run end);
//   - carry Simulation-1 buffer-hold (waited) edges exactly when clocks
//     actually skew — a perfect-clock run has none, and a skewed run has
//     one per message the receive buffers report as buffered;
//   - be byte-identical between the Def 2.2 reference loop and the
//     wheel scheduler (to_text(), raw uids);
//   - not perturb the run it observes (the probe is read-only).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "algos/flood.hpp"
#include "channel/channel.hpp"
#include "clock/trajectory.hpp"
#include "core/trace_io.hpp"
#include "obs/causal.hpp"
#include "obs/instrument.hpp"
#include "runtime/executor.hpp"
#include "runtime/system.hpp"
#include "rw/harness.hpp"
#include "support/reference_loop.hpp"

namespace psc {
namespace {

// Flood system on `g` with `fixed_delay > 0` pinning every channel to a
// deterministic transit time (so span times are hand-computable); 0 keeps
// the seeded uniform [d1, d2] policy. `reference` runs it on the Def 2.2
// reference loop instead of Executor::run().
TimedTrace flood_run(const Graph& g, std::uint64_t seed, bool reference,
                     CausalTraceProbe* probe, Duration fixed_delay,
                     ExecutorReport* out = nullptr) {
  Executor exec({.horizon = seconds(10),
                 .seed = seed,
                 .probes = probe ? std::vector<Probe*>{probe}
                                 : std::vector<Probe*>{}});
  ChannelConfig cc;
  cc.d1 = microseconds(100);
  cc.d2 = microseconds(200);
  cc.seed = seed;
  if (fixed_delay > 0) {
    cc.policy = [fixed_delay] { return DelayPolicy::fixed(fixed_delay); };
  }
  add_timed_system(exec, g, cc,
                   make_flood_nodes(g, /*source=*/0, 0xf100d,
                                    /*hops_bound=*/g.n, cc.d2, /*margin=*/1));
  const auto report = reference ? run_reference(exec) : exec.run();
  if (out != nullptr) *out = report;
  return exec.events();
}

SpanId find_span(const CausalDag& dag, std::string_view name, int node) {
  for (SpanId i = 0; i < static_cast<SpanId>(dag.size()); ++i) {
    if (dag.name(i) == name && dag.span(i).node == node) return i;
  }
  return kNoSpan;
}

std::size_t count_edges(const CausalDag& dag, EdgeKind kind,
                        bool waited_only = false) {
  std::size_t n = 0;
  for (SpanId i = 0; i < static_cast<SpanId>(dag.size()); ++i) {
    for (const CausalEdge& e : dag.preds(i)) {
      if (e.kind == kind && (!waited_only || e.waited)) ++n;
    }
  }
  return n;
}

std::size_t kind_index(EdgeKind k) { return static_cast<std::size_t>(k); }

// --- fixed-delay flood: hand-computed DAG --------------------------------

// Ring(3), every channel transit exactly 150us, margin 1ns. The run is a
// single causal chain:
//   t=0:     DELIVER_0, SENDMSG_0->1
//   t=150us: RECVMSG_1, DELIVER_1, SENDMSG_1->2
//   t=300us: RECVMSG_2, DELIVER_2, SENDMSG_2->0
//   t=450us: RECVMSG_0
//   t=600us+1ns: COMPLETE_0   (= hops_bound * d2 + margin)
constexpr Duration kFixed = microseconds(150);

TEST(CausalDag, FloodRingFixedDelaySpans) {
  CausalTraceProbe probe;
  ExecutorReport report;
  flood_run(Graph::ring(3), 42, false, &probe, kFixed, &report);
  const CausalDag& dag = probe.dag();

  ASSERT_EQ(dag.size(), 10u);  // 3x (RECVMSG DELIVER SENDMSG) + COMPLETE
  EXPECT_EQ(dag.process_count(), 3u);  // every action carries a node id

  // Every channel edge spans exactly the fixed transit time, and the
  // probe's MessageIndex knows each delivered uid's first-send time.
  const std::size_t channel_edges = count_edges(dag, EdgeKind::kChannel);
  EXPECT_EQ(channel_edges, 3u);
  for (SpanId i = 0; i < static_cast<SpanId>(dag.size()); ++i) {
    for (const CausalEdge& e : dag.preds(i)) {
      if (e.kind != EdgeKind::kChannel) continue;
      EXPECT_EQ(dag.span(i).time - dag.span(e.from).time, kFixed);
      const MessageIndex::Record* rec = probe.index().find(dag.span(i).uid);
      ASSERT_NE(rec, nullptr);
      EXPECT_EQ(rec->send_time, dag.span(e.from).time);
    }
  }
  // Timed model: no Simulation-1 buffers, no MMT nodes.
  EXPECT_EQ(count_edges(dag, EdgeKind::kBuffer), 0u);
  EXPECT_EQ(count_edges(dag, EdgeKind::kTick), 0u);
}

TEST(CausalDag, FloodRingFixedDelayCriticalPath) {
  CausalTraceProbe probe;
  ExecutorReport report;
  flood_run(Graph::ring(3), 42, false, &probe, kFixed, &report);
  const CausalDag& dag = probe.dag();

  const SpanId sink = dag.find_last("COMPLETE");
  ASSERT_NE(sink, kNoSpan);
  const CriticalPath cp = dag.critical_path(sink);

  // The path explains the sink's completion time exactly.
  EXPECT_EQ(cp.total, dag.span(sink).time);
  EXPECT_EQ(cp.total, 3 * microseconds(200) + 1);  // hops_bound*d2 + margin
  EXPECT_EQ(cp.total, report.end_time);

  ASSERT_FALSE(cp.steps.empty());
  EXPECT_EQ(cp.steps.front().via, EdgeKind::kStart);
  EXPECT_EQ(cp.steps.front().dur, 0);  // root fires at t=0
  EXPECT_EQ(cp.steps.back().span, sink);

  // Attribution: 3 channel hops of 150us are on the path; everything else
  // is local program order waiting out the completion timer.
  EXPECT_EQ(cp.by_kind[kind_index(EdgeKind::kChannel)], 3 * kFixed);
  EXPECT_EQ(cp.by_kind[kind_index(EdgeKind::kProgram)], cp.total - 3 * kFixed);
  EXPECT_EQ(cp.by_kind[kind_index(EdgeKind::kBuffer)], 0);
  EXPECT_EQ(cp.by_kind[kind_index(EdgeKind::kTick)], 0);
  EXPECT_EQ(cp.by_kind[kind_index(EdgeKind::kStart)], 0);

  Duration sum = 0;
  for (const CriticalStep& s : cp.steps) sum += s.dur;
  EXPECT_EQ(sum, cp.total);  // durations telescope
}

TEST(CausalDag, FloodRingVectorClocksAndHappensBefore) {
  CausalTraceProbe probe;
  flood_run(Graph::ring(3), 42, false, &probe, kFixed);
  const CausalDag& dag = probe.dag();

  const SpanId d0 = find_span(dag, "DELIVER", 0);
  const SpanId d1 = find_span(dag, "DELIVER", 1);
  const SpanId d2 = find_span(dag, "DELIVER", 2);
  const SpanId complete = find_span(dag, "COMPLETE", 0);
  ASSERT_NE(d0, kNoSpan);
  ASSERT_NE(d1, kNoSpan);
  ASSERT_NE(d2, kNoSpan);
  ASSERT_NE(complete, kNoSpan);

  // The ring flood is one causal chain: deliveries are totally ordered and
  // everything precedes COMPLETE.
  EXPECT_TRUE(dag.happens_before(d0, d1));
  EXPECT_TRUE(dag.happens_before(d1, d2));
  EXPECT_FALSE(dag.happens_before(d1, d0));
  EXPECT_FALSE(dag.concurrent(d0, d2));
  for (SpanId i = 0; i < static_cast<SpanId>(dag.size()); ++i) {
    if (i == complete) continue;
    EXPECT_TRUE(dag.happens_before(i, complete)) << "span " << i;
  }

  // COMPLETE's vector clock therefore counts every span of every process.
  const std::vector<std::uint32_t>& vc = dag.vector_clock(complete);
  std::uint64_t sum = 0;
  for (std::uint32_t c : vc) sum += c;
  EXPECT_EQ(sum, dag.size());
}

TEST(CausalDag, CompleteGraphBranchesAreConcurrent) {
  // On K3 the source sends to 1 and 2 in parallel: their DELIVERs share
  // the source's past but not each other's.
  CausalTraceProbe probe;
  flood_run(Graph::complete(3), 42, false, &probe, kFixed);
  const CausalDag& dag = probe.dag();

  const SpanId d1 = find_span(dag, "DELIVER", 1);
  const SpanId d2 = find_span(dag, "DELIVER", 2);
  const SpanId d0 = find_span(dag, "DELIVER", 0);
  ASSERT_NE(d1, kNoSpan);
  ASSERT_NE(d2, kNoSpan);
  EXPECT_TRUE(dag.concurrent(d1, d2));
  EXPECT_TRUE(dag.happens_before(d0, d1));
  EXPECT_TRUE(dag.happens_before(d0, d2));
}

// --- scheduler equivalence & zero perturbation ---------------------------

TEST(CausalDag, IdenticalAcrossSchedulers) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    CausalTraceProbe fast;
    CausalTraceProbe slow;
    flood_run(Graph::ring(6), seed, false, &fast, /*fixed_delay=*/0);
    flood_run(Graph::ring(6), seed, true, &slow, /*fixed_delay=*/0);
    EXPECT_GT(fast.dag().size(), 0u);
    EXPECT_EQ(fast.dag().to_text(), slow.dag().to_text()) << "seed " << seed;
  }
}

TEST(CausalDag, ProbeDoesNotPerturbTrace) {
  CausalTraceProbe probe;
  ExecutorReport with_probe;
  ExecutorReport without;
  const auto a =
      flood_run(Graph::ring(6), 42, false, &probe, /*fixed_delay=*/0,
                &with_probe);
  const auto b = flood_run(Graph::ring(6), 42, false, nullptr,
                           /*fixed_delay=*/0, &without);
  EXPECT_EQ(with_probe.steps, without.steps);
  EXPECT_EQ(trace_to_text(a), trace_to_text(b));
  EXPECT_EQ(probe.dag().size(), with_probe.steps);
}

// --- Simulation-1 buffer-hold edges --------------------------------------

RwRunConfig rw_cfg(std::uint64_t seed) {
  RwRunConfig cfg;
  cfg.num_nodes = 3;
  cfg.d1 = microseconds(20);
  // Keep transit under 2 eps so an opposing-offset pair makes *every*
  // delivery wait in the receive buffer (tag = send + eps > arrival - eps).
  cfg.d2 = microseconds(60);
  cfg.eps = microseconds(40);
  cfg.c = microseconds(30);
  cfg.ops_per_node = 6;
  cfg.think_max = microseconds(300);
  cfg.horizon = seconds(5);
  cfg.seed = seed;
  return cfg;
}

TEST(CausalProbe, BufferHoldEdgesMatchReceiveBufferStats) {
  // Perfect clocks: Simulation-1 buffers exist but never delay a message,
  // so kBuffer edges appear (the pipeline is real) but none is `waited`.
  {
    CausalTraceProbe probe;
    ObsOptions obs;
    obs.causal = &probe;
    RwRunConfig cfg = rw_cfg(42);
    cfg.obs = &obs;
    const RwRunResult r = run_rw_clock(cfg, PerfectDrift());
    ASSERT_FALSE(r.ops.empty());
    EXPECT_EQ(r.buffer_totals.buffered, 0u);
    EXPECT_GT(count_edges(probe.dag(), EdgeKind::kBuffer), 0u);
    EXPECT_EQ(count_edges(probe.dag(), EdgeKind::kBuffer, /*waited=*/true),
              0u);
  }
  // Skewed clocks: each message the buffers report as buffered shows up as
  // exactly one waited kBuffer edge, carrying a positive clock-time hold.
  {
    CausalTraceProbe probe;
    ObsOptions obs;
    obs.causal = &probe;
    // Seed chosen so the per-node coin flips actually oppose (all-same-sign
    // draws skew every clock identically and nothing buffers).
    RwRunConfig cfg = rw_cfg(2);
    cfg.obs = &obs;
    const RwRunResult r = run_rw_clock(cfg, OpposingOffsetDrift());
    ASSERT_FALSE(r.ops.empty());
    ASSERT_GT(r.buffer_totals.buffered, 0u);
    const CausalDag& dag = probe.dag();
    std::size_t waited = 0;
    Duration hold_sum = 0;
    for (SpanId i = 0; i < static_cast<SpanId>(dag.size()); ++i) {
      for (const CausalEdge& e : dag.preds(i)) {
        if (e.kind != EdgeKind::kBuffer || !e.waited) continue;
        ++waited;
        EXPECT_GT(e.clock_hold, 0);
        hold_sum += e.clock_hold;
      }
    }
    EXPECT_EQ(waited, r.buffer_totals.buffered);
    EXPECT_EQ(hold_sum, r.buffer_totals.total_hold);
  }
}

TEST(CausalProbe, TickEdgesOnlyInMmtRuns) {
  CausalTraceProbe clock_probe;
  ObsOptions clock_obs;
  clock_obs.causal = &clock_probe;
  RwRunConfig cfg = rw_cfg(7);
  cfg.ops_per_node = 4;
  cfg.obs = &clock_obs;
  run_rw_clock(cfg, PerfectDrift());
  EXPECT_EQ(count_edges(clock_probe.dag(), EdgeKind::kTick), 0u);

  CausalTraceProbe mmt_probe;
  ObsOptions mmt_obs;
  mmt_obs.causal = &mmt_probe;
  cfg.obs = &mmt_obs;
  run_rw_mmt(cfg, PerfectDrift(), /*ell=*/microseconds(10), /*k=*/2);
  EXPECT_GT(count_edges(mmt_probe.dag(), EdgeKind::kTick), 0u);
}

// --- the causal probe beside the metric probes -------------------------

TEST(CausalProbe, CausalProbeLeavesChannelMetricsUnchanged) {
  // Same seeded run twice, with and without the causal probe attached. The
  // metrics (the channel latencies among them) must not notice the
  // difference.
  auto metrics_text = [](bool with_causal) {
    CausalTraceProbe probe;
    MetricsRegistry reg;
    ObsOptions obs;
    obs.registry = &reg;
    if (with_causal) obs.causal = &probe;
    RwRunConfig cfg = rw_cfg(42);
    cfg.obs = &obs;
    run_rw_clock(cfg, PerfectDrift());
    std::ostringstream os;
    reg.write_jsonl(os);
    return os.str();
  };
  const std::string shared = metrics_text(true);
  const std::string private_idx = metrics_text(false);
  EXPECT_FALSE(shared.empty());
  EXPECT_EQ(shared, private_idx);
}

// --- MessageIndex unit ---------------------------------------------------

TEST(MessageIndex, StageParsingAndFirstSendWins) {
  EXPECT_EQ(ActionName("SENDMSG").msg_class(), MsgClass::kSend);
  EXPECT_EQ(ActionName("ESENDMSG").msg_class(), MsgClass::kESend);
  EXPECT_EQ(ActionName("ERECVMSG").msg_class(), MsgClass::kERecv);
  EXPECT_EQ(ActionName("RECVMSG").msg_class(), MsgClass::kRecv);
  EXPECT_EQ(ActionName("DELIVER").msg_class(), MsgClass::kOther);

  MessageIndex idx;
  Message m = make_message("PING");
  m.uid = 1;
  TimedEvent send;
  send.action = make_send(0, 1, m);
  send.time = microseconds(5);
  idx.observe(send, /*span=*/0);

  // A later ESENDMSG on the same uid advances `last` but must not clobber
  // the first send time (latency is measured from the original SENDMSG).
  TimedEvent esend;
  esend.action = make_send(0, 1, m, "ESENDMSG");
  esend.time = microseconds(7);
  idx.observe(esend, /*span=*/1);

  TimedEvent recv;
  recv.action = make_recv(1, 0, m);
  recv.time = microseconds(9);
  idx.observe(recv, /*span=*/3);

  const MessageIndex::Record* rec = idx.find(m.uid);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->send_time, microseconds(5));
  EXPECT_EQ(rec->send_span, 0u);
  EXPECT_EQ(rec->last_time, microseconds(9));
  EXPECT_EQ(rec->last_span, 3u);
  EXPECT_EQ(rec->last_stage, MsgClass::kRecv);
  // The index holds exactly the one uid it was fed.
  EXPECT_EQ(idx.find(m.uid - 1), nullptr);
  EXPECT_EQ(idx.find(m.uid + 1), nullptr);
  EXPECT_EQ(idx.find(m.uid + 12345), nullptr);
}

// A hand-built stream whose uids start above 1 and arrive out of order:
// the rows sit at an offset base, an earlier uid seen later is inserted in
// front, and a gap leaves untouched uids that find() still reports absent.
TEST(MessageIndex, UidsAboveOneOutOfOrder) {
  MessageIndex idx;
  const auto leg = [&idx](ActionName name, std::uint64_t uid, Time t,
                          SpanId span) {
    Message m = make_message("PING");
    m.uid = uid;
    TimedEvent e;
    e.action = make_send(0, 1, m, name);  // the index reads name and uid
    e.time = t;
    idx.observe(e, span);
  };
  leg(names::kSendMsg, 7, microseconds(1), 0);
  leg(names::kSendMsg, 5, microseconds(2), 1);    // front of the base
  leg(names::kESendMsg, 10, microseconds(3), 2);  // past a gap
  leg(names::kERecvMsg, 5, microseconds(4), 3);
  leg(names::kRecvMsg, 7, microseconds(5), 4);

  // A message action that is no leg, and a leg without a message, add no
  // row.
  TimedEvent deliver;
  Message m = make_message("PING");
  m.uid = 8;
  deliver.action = make_send(0, 1, m, "DELIVER");
  idx.observe(deliver, 5);
  TimedEvent bare;
  bare.action = make_action(names::kSendMsg, 0);
  idx.observe(bare, 6);

  const MessageIndex::Record* r5 = idx.find(5);
  ASSERT_NE(r5, nullptr);
  EXPECT_EQ(r5->send_time, microseconds(2));
  EXPECT_EQ(r5->send_span, 1u);
  EXPECT_EQ(r5->last_time, microseconds(4));
  EXPECT_EQ(r5->last_span, 3u);
  EXPECT_EQ(r5->last_stage, MsgClass::kERecv);

  const MessageIndex::Record* r7 = idx.find(7);
  ASSERT_NE(r7, nullptr);
  EXPECT_EQ(r7->send_time, microseconds(1));
  EXPECT_EQ(r7->send_span, 0u);
  EXPECT_EQ(r7->last_span, 4u);
  EXPECT_EQ(r7->last_stage, MsgClass::kRecv);

  const MessageIndex::Record* r10 = idx.find(10);
  ASSERT_NE(r10, nullptr);
  EXPECT_EQ(r10->send_time, microseconds(3));
  EXPECT_EQ(r10->send_span, 2u);
  EXPECT_EQ(r10->last_stage, MsgClass::kESend);

  for (const std::uint64_t absent : {0u, 1u, 4u, 6u, 8u, 9u, 11u}) {
    EXPECT_EQ(idx.find(absent), nullptr) << "uid " << absent;
  }
}

}  // namespace
}  // namespace psc
