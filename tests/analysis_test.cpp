// Model-conformance analyzer tests (src/analysis/).
//
// Layer 1 (composition lint): each seeded mis-assembly is detected with its
// stable PSC0xx code, and every shipped harness assembly is diagnostic-clean.
// Layer 2 (trace invariants): each seeded trace violation is detected with
// its stable PSC1xx code — synthetically, then end-to-end on the shipped
// flood/rw/queue harnesses both online (InvariantProbe) and offline
// (check_trace over a serialized-and-reparsed trace).
#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bounds.hpp"
#include "analysis/lint.hpp"
#include "analysis/trace_check.hpp"
#include "analysis/windows.hpp"
#include "channel/channel.hpp"
#include "clock/trajectory.hpp"
#include "core/relations.hpp"
#include "core/trace_io.hpp"
#include "mmt/tick_source.hpp"
#include "obs/instrument.hpp"
#include "obs/observatory.hpp"
#include "runtime/clocked.hpp"
#include "runtime/executor.hpp"
#include "runtime/renamed.hpp"
#include "rw/harness.hpp"
#include "rw/queue.hpp"
#include "transform/buffers.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace psc {
namespace {

// A drift-free trajectory that nonetheless advertises accuracy eps.
std::shared_ptr<const ClockTrajectory> perfect_traj(Duration eps) {
  return std::make_shared<const ClockTrajectory>(
      std::vector<Breakpoint>{{0, 0}}, eps);
}

// A clock-model machine whose transitions (illegally) consult real time.
class NowReader final : public Machine {
 public:
  NowReader() : Machine("NowReader") {}
  void declare_signature(SignatureDecl&) const override {}
  void apply_input(const Action&, Time) override {}
  void enabled_into(Time, Candidates& out) const override {
    out.clear();
  }
  void apply_local(const Action&, Time) override {}
  ModelTraits model_traits() const override {
    ModelTraits t;
    t.reads_real_time = true;
    return t;
  }
};

// --- Layer 1: seeded composition violations --------------------------------

TEST(LintTest, DoubleClaimedKindIsPSC001) {
  auto traj = perfect_traj(microseconds(50));
  TickSource a(0, traj, microseconds(10), Rng(1));
  TickSource b(0, traj, microseconds(10), Rng(2));
  const auto report = lint_composition({&a, &b});
  EXPECT_EQ(report.count(DiagCode::kMultiplyClaimed), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(LintTest, DanglingChannelIsPSC002) {
  Channel ch(0, 1, microseconds(10), microseconds(100),
             DelayPolicy::uniform(), Rng(3));
  const auto report = lint_composition({&ch});
  // Nothing produces SENDMSG(0,1): dangling input endpoint.
  EXPECT_EQ(report.count(DiagCode::kNoProducer), 1u);
  // Nothing consumes RECVMSG(1,0): dead-interface note, not an error.
  EXPECT_EQ(report.count(DiagCode::kNoConsumer), 1u);
  EXPECT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.notes(), 1u);
}

TEST(LintTest, SwappedEndpointsArePSC004) {
  // The buffer feeds edge 0->2 but the channel serves edge 0->1: the names
  // match, the (node, peer) fields cannot align.
  SendBuffer sb(0, 2);
  Channel ch(0, 1, microseconds(10), microseconds(100),
             DelayPolicy::uniform(), Rng(3), "ESENDMSG", "ERECVMSG");
  const auto report = lint_composition({&sb, &ch});
  EXPECT_GE(report.count(DiagCode::kEndpointMismatch), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(LintTest, EpsMismatchIsPSC005) {
  ClockedMachine a(std::make_unique<SendBuffer>(0, 1),
                   perfect_traj(microseconds(50)));
  ClockedMachine b(std::make_unique<SendBuffer>(1, 0),
                   perfect_traj(microseconds(80)));
  const auto report = lint_composition({&a, &b});
  EXPECT_EQ(report.count(DiagCode::kEpsMismatch), 1u);
  EXPECT_TRUE(report.has_errors());
}

TEST(LintTest, EpsMismatchAgainstRequiredEps) {
  ClockedMachine a(std::make_unique<SendBuffer>(0, 1),
                   perfect_traj(microseconds(50)));
  LintOptions opts;
  opts.eps = microseconds(60);
  const auto report = lint_composition({&a}, opts);
  EXPECT_EQ(report.count(DiagCode::kEpsMismatch), 1u);
}

TEST(LintTest, RealTimeReadUnderClockIsPSC006) {
  ClockedMachine wrapped(std::make_unique<NowReader>(),
                         perfect_traj(microseconds(50)));
  const auto report = lint_composition({&wrapped});
  EXPECT_EQ(report.count(DiagCode::kRealTimeUnderClock), 1u);
  // The same machine outside a clock adapter is legitimate.
  NowReader bare;
  EXPECT_EQ(lint_composition({&bare}).count(DiagCode::kRealTimeUnderClock),
            0u);
}

TEST(LintTest, SwappedEndpointsSurviveRenamingPSC004) {
  // Same endpoint mismatch as SwappedEndpointsArePSC004, but the producer
  // sits behind a RenamedMachine adapter: its declaration is translated to
  // the outer names, so the near-miss must still surface as PSC004.
  RenamedMachine ren(std::make_unique<SendBuffer>(0, 2),
                     {{"ESENDMSG", "XSEND"}});
  Channel ch(0, 1, microseconds(10), microseconds(100),
             DelayPolicy::uniform(), Rng(3), "XSEND", "XRECV");
  const auto report = lint_composition({&ren, &ch});
  EXPECT_GE(report.count(DiagCode::kEndpointMismatch), 1u);
  EXPECT_TRUE(report.has_errors());
  // The aligned edge is clean through the same adapter.
  RenamedMachine ok(std::make_unique<SendBuffer>(0, 1),
                    {{"ESENDMSG", "XSEND"}});
  EXPECT_EQ(lint_composition({&ok, &ch}).count(DiagCode::kEndpointMismatch),
            0u);
}

TEST(LintTest, ExecutorValidateFailsFastOnBadComposition) {
  auto traj = perfect_traj(microseconds(50));
  Executor exec({.horizon = milliseconds(1), .validate = true});
  exec.add_owned(
      std::make_unique<TickSource>(0, traj, microseconds(10), Rng(1)));
  exec.add_owned(
      std::make_unique<TickSource>(0, traj, microseconds(10), Rng(2)));
  EXPECT_THROW(exec.run(), CheckError);
}

TEST(LintTest, ExecutorValidateComposition) {
  Executor exec({.horizon = milliseconds(1)});
  exec.add_owned(std::make_unique<Channel>(0, 1, microseconds(10),
                                           microseconds(100),
                                           DelayPolicy::uniform(), Rng(3)));
  const auto report = exec.validate_composition();
  EXPECT_EQ(report.count(DiagCode::kNoProducer), 1u);
}

// --- Layer 2: seeded trace violations ---------------------------------------

TimedEvent ev(const char* name, Time t, int node = kNoNode,
              int peer = kNoNode, Time clock = kNoClockTag) {
  TimedEvent e;
  e.action.name = name;
  e.action.node = node;
  e.action.peer = peer;
  e.time = t;
  e.clock = clock;
  e.owner = node >= 0 ? node : 0;
  return e;
}

TimedEvent msg_ev(const char* name, Time t, int node, int peer,
                  std::uint64_t uid, Time tag = kNoClockTag,
                  Time clock = kNoClockTag) {
  TimedEvent e = ev(name, t, node, peer, clock);
  Message m;
  m.kind = "M";
  m.uid = uid;
  m.clock_tag = tag;
  e.action.msg = m;
  return e;
}

// The seeded PSC101/102/104/105 traces with their options, shared by the
// per-code tests and MeterAgreementTest below.
TraceCheckOptions drift_opts() {
  TraceCheckOptions opts;
  opts.eps = microseconds(1);
  return opts;
}
TimedTrace drift_trace() {
  return {ev("A", milliseconds(1), 0, kNoNode,
             milliseconds(1) + microseconds(10))};
}

TraceCheckOptions delivery_opts() {
  TraceCheckOptions opts;
  opts.d1 = microseconds(20);
  opts.d2 = microseconds(300);
  return opts;
}
// Timed model: SENDMSG -> RECVMSG, delivered way past d2.
TimedTrace late_delivery_trace() {
  return {msg_ev("SENDMSG", 0, 0, 1, 7),
          msg_ev("RECVMSG", microseconds(500), 1, 0, 7)};
}
// Under d1 is also a violation.
TimedTrace early_delivery_trace() {
  return {msg_ev("SENDMSG", 0, 0, 1, 8),
          msg_ev("RECVMSG", microseconds(5), 1, 0, 8)};
}
// Simulation 1: the physical pair is ESENDMSG -> ERECVMSG.
TimedTrace sim1_late_delivery_trace() {
  return {msg_ev("ESENDMSG", 0, 0, 1, 10, /*tag=*/0),
          msg_ev("ERECVMSG", microseconds(400), 1, 0, 10, /*tag=*/0)};
}

TraceCheckOptions widened_opts() {
  TraceCheckOptions opts;
  opts.eps = microseconds(50);
  opts.d1 = microseconds(20);
  opts.d2 = microseconds(300);
  return opts;
}
// Clock-time latency 500us > d2 + 2eps = 400us, while real-time latency
// stays in [d1, d2] and the release comes after its tag (no PSC102/103).
TimedTrace widened_window_trace() {
  const Time tag = microseconds(100);
  return {msg_ev("ESENDMSG", microseconds(90), 0, 1, 6, tag),
          msg_ev("ERECVMSG", microseconds(290), 1, 0, 6, tag),
          msg_ev("RECVMSG", microseconds(310), 1, 0, 6, kNoClockTag,
                 /*clock=*/tag + microseconds(500))};
}

TraceCheckOptions boundmap_opts() {
  TraceCheckOptions opts;
  opts.ell = microseconds(10);
  return opts;
}
// First tick 50us after time 0 blows the [0, ell] boundmap.
TimedTrace late_tick_trace() { return {ev("TICK", microseconds(50), 0)}; }
// An MMT node (recognized by its MMTSTEP) must also step every <= ell.
TimedTrace step_gap_trace() {
  return {ev("MMTSTEP", microseconds(5), 0),
          ev("MMTSTEP", microseconds(40), 0)};
}

TEST(TraceCheckTest, ClockDriftOutsideBandIsPSC101) {
  const TraceCheckOptions opts = drift_opts();
  const auto report = check_trace(drift_trace(), opts);
  EXPECT_EQ(report.count(DiagCode::kClockDrift), 1u);
  // Within the band: clean.
  TimedTrace ok{ev("A", milliseconds(1), 0, kNoNode,
                   milliseconds(1) + microseconds(1) - 100)};
  EXPECT_TRUE(check_trace(ok, opts).empty());
}

TEST(TraceCheckTest, OutOfWindowDeliveryIsPSC102) {
  const TraceCheckOptions opts = delivery_opts();
  EXPECT_EQ(check_trace(late_delivery_trace(), opts)
                .count(DiagCode::kDeliveryWindow),
            1u);
  EXPECT_EQ(check_trace(early_delivery_trace(), opts)
                .count(DiagCode::kDeliveryWindow),
            1u);
  // In-window: clean.
  TimedTrace ok{
      msg_ev("SENDMSG", 0, 0, 1, 9),
      msg_ev("RECVMSG", microseconds(100), 1, 0, 9),
  };
  EXPECT_TRUE(check_trace(ok, opts).empty());
  EXPECT_EQ(check_trace(sim1_late_delivery_trace(), opts)
                .count(DiagCode::kDeliveryWindow),
            1u);
}

TEST(TraceCheckTest, BufferReleaseBeforeTagIsPSC103) {
  TraceCheckOptions opts;  // no eps/d2: only the release rule applies
  const Time tag = microseconds(100);
  TimedTrace trace{
      msg_ev("ESENDMSG", 0, 0, 1, 4, tag),
      msg_ev("ERECVMSG", microseconds(50), 1, 0, 4, tag),
      // Released while the receiver clock reads only 60us < the 100us tag.
      msg_ev("RECVMSG", microseconds(70), 1, 0, 4, kNoClockTag,
             /*clock=*/microseconds(60)),
  };
  const auto report = check_trace(trace, opts);
  EXPECT_EQ(report.count(DiagCode::kEarlyRelease), 1u);
  // Release at clock >= tag is the rule working: clean.
  TimedTrace ok{
      msg_ev("ESENDMSG", 0, 0, 1, 5, tag),
      msg_ev("ERECVMSG", microseconds(50), 1, 0, 5, tag),
      msg_ev("RECVMSG", microseconds(120), 1, 0, 5, kNoClockTag,
             /*clock=*/microseconds(110)),
  };
  EXPECT_TRUE(check_trace(ok, opts).empty());
}

TEST(TraceCheckTest, WidenedWindowViolationIsPSC104) {
  const auto report = check_trace(widened_window_trace(), widened_opts());
  EXPECT_EQ(report.count(DiagCode::kWidenedWindow), 1u);
  EXPECT_EQ(report.count(DiagCode::kEarlyRelease), 0u);
}

TEST(TraceCheckTest, BoundmapOverrunIsPSC105) {
  const TraceCheckOptions opts = boundmap_opts();
  EXPECT_EQ(check_trace(late_tick_trace(), opts)
                .count(DiagCode::kBoundmapOverrun),
            1u);
  // Ticks every <= ell: clean.
  TimedTrace ok{
      ev("TICK", microseconds(8), 0),
      ev("TICK", microseconds(16), 0),
  };
  EXPECT_TRUE(check_trace(ok, opts).empty());
  EXPECT_EQ(check_trace(step_gap_trace(), opts)
                .count(DiagCode::kBoundmapOverrun),
            1u);
}

TEST(TraceCheckTest, PerNodeOrderViolationIsPSC106) {
  TraceCheckOptions opts;
  opts.eps = microseconds(5);
  opts.num_nodes = 1;
  // Node 0's clock inverts the real-time order of A and B: the clock
  // retiming gamma'_alpha swaps them within the node's kappa class.
  TimedTrace trace{
      ev("A", 0, 0, kNoNode, /*clock=*/microseconds(2)),
      ev("B", microseconds(1), 0, kNoNode, /*clock=*/0),
  };
  const auto report = check_trace(trace, opts);
  EXPECT_EQ(report.count(DiagCode::kOrderViolation), 1u);
  // Monotone per-node clocks: clean.
  TimedTrace ok{
      ev("A", 0, 0, kNoNode, /*clock=*/0),
      ev("B", microseconds(1), 0, kNoNode, /*clock=*/microseconds(2)),
  };
  EXPECT_TRUE(check_trace(ok, opts).empty());
}

// The buffered PSC106 decision, kept as the oracle for the streaming check:
// the clocked events against their stable clock retiming, =band,kappa-
// related with one class per node.
RelationResult buffered_order_oracle(const TimedTrace& trace, Duration band,
                                     int nodes) {
  TimedTrace clocked;
  for (const TimedEvent& e : trace) {
    if (e.clock != kNoClockTag) clocked.push_back(e);
  }
  return eq_within(clocked, stable_sort_by_time(retime_by_clock(clocked)),
                   band, per_node_classes(nodes));
}

// True iff some node in [0, nodes) reads a lower clock than at its previous
// clocked event.
bool has_clock_decrease(const TimedTrace& trace, int nodes) {
  std::vector<Time> last(static_cast<std::size_t>(nodes),
                         std::numeric_limits<Time>::min());
  for (const TimedEvent& e : trace) {
    const int n = e.action.node;
    if (e.clock == kNoClockTag || n < 0 || n >= nodes) continue;
    Time& prev = last[static_cast<std::size_t>(n)];
    if (e.clock < prev) return true;
    prev = e.clock;
  }
  return false;
}

// A random clocked trace for the PSC106 differential test. Node events get
// per-node nondecreasing clocks within `band` of real time, with clock ties;
// each carries its sequence number, so node actions are pairwise distinct
// and any clock decrease displaces actions eq_within can tell apart.
// Unclassed events (node kNoNode or past the last node) repeat two
// identities with clocks anywhere in the band, and some swap clocks with an
// earlier event of their identity: only a sorted-against-sorted matching
// still pairs each time with a clock inside the band. Some events are
// unclocked. Then, per trace, one of: nothing, band violations (possibly on
// several nodes), a clock decrease, or both.
TimedTrace random_order_trace(int nodes, Duration band, Rng& rng) {
  std::vector<Time> last(static_cast<std::size_t>(nodes),
                         std::numeric_limits<Time>::min());
  TimedTrace tr;
  Time t = 0;
  const std::int64_t n = rng.uniform(10, 60);
  for (std::int64_t k = 0; k < n; ++k) {
    t += rng.uniform(0, band);
    TimedEvent e;
    e.time = t;
    e.clock = t + rng.uniform(-band, band);
    if (rng.flip(0.2)) {
      const int node =
          rng.flip(0.5) ? kNoNode : nodes + static_cast<int>(rng.index(2));
      e.action = make_action(rng.flip(0.5) ? "U" : "V", node);
      if (rng.flip(0.5)) {
        for (auto p = tr.rbegin(); p != tr.rend(); ++p) {
          if (to_string(p->action) == to_string(e.action)) {
            if (p->clock != kNoClockTag) std::swap(p->clock, e.clock);
            break;
          }
        }
      }
    } else {
      const int node = static_cast<int>(rng.index(nodes));
      e.action = make_action(rng.flip(0.5) ? "A" : "B", node, {Value{k}});
      Time& prev = last[static_cast<std::size_t>(node)];
      if (prev != std::numeric_limits<Time>::min() && rng.flip(0.3) &&
          std::llabs(t - prev) <= band) {
        e.clock = prev;  // a clock tie
      }
      e.clock = std::max(e.clock, prev);
      prev = e.clock;
    }
    if (rng.flip(0.1)) e.clock = kNoClockTag;
    tr.push_back(e);
  }
  const std::size_t inject = rng.index(4);
  if (inject == 1 || inject == 3) {
    for (std::int64_t m = rng.uniform(1, 3); m > 0; --m) {
      TimedEvent& v = tr[rng.index(tr.size())];
      // Half the violations sit exactly one past the band.
      const Duration off =
          band + 1 + (rng.flip(0.5) ? 0 : rng.uniform(1, band));
      v.clock = rng.flip(0.5) ? v.time + off : v.time - off;
    }
  }
  if (inject == 2 || inject == 3) {
    // Pull one node event's clock just below its node's previous reading.
    const std::size_t i = rng.index(tr.size());
    TimedEvent& v = tr[i];
    const bool classed = v.action.node >= 0 && v.action.node < nodes;
    for (std::size_t j = i; classed && j-- > 0;) {
      const TimedEvent& p = tr[j];
      if (p.action.node == v.action.node && p.clock != kNoClockTag) {
        v.clock = p.clock - 1 - rng.uniform(0, band / 2);
        break;
      }
    }
  }
  return tr;
}

TEST(TraceCheckTest, StreamingOrderCheckMatchesBufferedOracle) {
  const std::string prefix =
      "trace is not =eps,kappa-related to its clock retiming: ";
  int related = 0, decreases = 0, unrelated_in_place = 0, unclassed = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    TraceCheckOptions opts;
    opts.num_nodes = static_cast<int>(rng.uniform(1, 4));
    opts.eps = rng.uniform(0, 100);
    opts.ell = rng.flip(0.5) ? -1 : rng.uniform(1, 50);
    opts.slack = rng.uniform(0, 4);
    const Duration band =
        opts.eps + (opts.ell > 0 ? opts.ell : 0) + opts.slack;
    const TimedTrace trace = random_order_trace(opts.num_nodes, band, rng);

    const RelationResult oracle =
        buffered_order_oracle(trace, band, opts.num_nodes);
    const DiagnosticReport report = check_trace(trace, opts);
    ASSERT_EQ(report.count(DiagCode::kOrderViolation),
              oracle.related ? 0u : 1u)
        << "seed " << seed << ": " << oracle.why;
    if (oracle.related) {
      ++related;
    } else if (has_clock_decrease(trace, opts.num_nodes)) {
      ++decreases;
    } else {
      // No event moves, so the failure and its wording match eq_within's.
      ++unrelated_in_place;
      if (oracle.why.rfind("time perturbation > eps for ", 0) == 0) {
        ++unclassed;
      }
      for (const Diagnostic& d : report.diagnostics()) {
        if (d.code == DiagCode::kOrderViolation) {
          EXPECT_EQ(d.message, prefix + oracle.why) << "seed " << seed;
        }
      }
    }
  }
  // Every branch of the comparison is exercised.
  EXPECT_GE(related, 50);
  EXPECT_GE(decreases, 50);
  EXPECT_GE(unrelated_in_place, 25);
  EXPECT_GE(unclassed, 5);
}

TEST(TraceCheckTest, ClockDecreaseOverIdenticalActionsIsPSC106) {
  // The one case where the streaming check is stricter than the buffered
  // eq_within it replaced: node 0's clock goes down between two identical
  // actions. The clock retiming swaps them, but positional matching cannot
  // tell the copies apart and each position stays inside the band.
  TraceCheckOptions opts;
  opts.eps = microseconds(5);
  opts.num_nodes = 1;
  const TimedTrace trace{
      ev("A", 0, 0, kNoNode, /*clock=*/microseconds(2)),
      ev("A", microseconds(1), 0, kNoNode, /*clock=*/0),
  };
  const Duration band = opts.eps + opts.slack;
  EXPECT_TRUE(buffered_order_oracle(trace, band, opts.num_nodes));

  const DiagnosticReport report = check_trace(trace, opts);
  ASSERT_EQ(report.count(DiagCode::kOrderViolation), 1u);
  const std::string& msg = report.diagnostics().front().message;
  EXPECT_NE(msg.find("node 0 clock decreases from " +
                     format_time(microseconds(2)) + " to " + format_time(0)),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find(to_string(trace[1].action)), std::string::npos) << msg;
}

TEST(TraceCheckTest, UnknownDeliveryIsPSC107Warning) {
  const auto report =
      check_trace({msg_ev("RECVMSG", microseconds(10), 1, 0, 99)}, {});
  EXPECT_EQ(report.count(DiagCode::kUnknownDelivery), 1u);
  EXPECT_FALSE(report.has_errors());
  EXPECT_EQ(report.warnings(), 1u);
}

TEST(TraceCheckTest, ReportCapsStoredDiagnosticsButCountsAll) {
  TraceCheckOptions opts;
  opts.eps = 1;
  TimedTrace trace;
  for (int k = 0; k < 40; ++k) {
    trace.push_back(
        ev("A", microseconds(k + 1), 0, kNoNode, microseconds(k + 100)));
  }
  opts.num_nodes = 0;
  const auto report = check_trace(trace, opts);
  EXPECT_EQ(report.count(DiagCode::kClockDrift), 40u);
  EXPECT_LE(report.diagnostics().size(), DiagnosticReport::kMaxStoredPerCode);
  EXPECT_NE(report.to_text().find("suppressed"), std::string::npos);
}

// --- serialization ----------------------------------------------------------

TEST(TraceJsonlTest, RoundTripsEventsAndDiagnostics) {
  TimedTrace trace;
  TimedEvent e = msg_ev("ESENDMSG", microseconds(3), 0, 1, 12,
                        microseconds(2), microseconds(2));
  e.action.args = {Value{std::int64_t{-7}}, Value{1.5},
                   Value{std::string("a \"b\"\n\t")}, Value{}};
  e.action.msg->fields = {Value{std::int64_t{9}},
                          Value{std::string("x:y z")}};
  e.visible = false;
  trace.push_back(e);
  trace.push_back(ev("TICK", microseconds(5), 2));

  std::ostringstream os;
  write_trace_jsonl(os, trace);
  std::istringstream is(os.str());
  const TimedTrace back = read_trace_jsonl(is);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    EXPECT_EQ(back[k].action, trace[k].action) << "event " << k;
    EXPECT_EQ(back[k].time, trace[k].time);
    EXPECT_EQ(back[k].clock, trace[k].clock);
    EXPECT_EQ(back[k].owner, trace[k].owner);
    EXPECT_EQ(back[k].visible, trace[k].visible);
  }

  // read_trace_any sniffs both formats.
  std::istringstream js(os.str());
  EXPECT_EQ(read_trace_any(js).size(), trace.size());
  std::ostringstream ts;
  write_trace(ts, trace);
  std::istringstream tx(ts.str());
  EXPECT_EQ(read_trace_any(tx).size(), trace.size());
}

TEST(TraceJsonlTest, DiagnosticReportJsonlHasCodeAndSeverity) {
  DiagnosticReport report;
  report.add(DiagCode::kClockDrift, "skew \"big\"", "node0", microseconds(5));
  std::ostringstream os;
  report.write_jsonl(os);
  const std::string line = os.str();
  EXPECT_NE(line.find("\"code\":\"PSC101\""), std::string::npos);
  EXPECT_NE(line.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(line.find("\\\"big\\\""), std::string::npos);
  EXPECT_NE(line.find("\"time_ns\":5000"), std::string::npos);
}

// --- shipped harnesses are conformance-clean --------------------------------

RwRunConfig small_cfg() {
  RwRunConfig cfg;
  cfg.num_nodes = 3;
  cfg.ops_per_node = 8;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(300);
  cfg.eps = microseconds(50);
  cfg.c = microseconds(40);
  cfg.think_max = microseconds(300);
  cfg.horizon = seconds(30);
  cfg.validate = true;  // static lint at run start — throws on any error
  return cfg;
}

TEST(HarnessCleanTest, RwTimedIsCleanOnlineAndOffline) {
  RwRunConfig cfg = small_cfg();
  TraceCheckOptions tco;
  tco.d1 = cfg.d1;
  tco.d2 = cfg.d2;
  tco.num_nodes = cfg.num_nodes;
  InvariantProbe probe(tco);
  ObsOptions obs;
  obs.lint = &probe;
  cfg.obs = &obs;
  const RwRunResult run = run_rw_timed(cfg);
  EXPECT_FALSE(probe.report().has_errors()) << probe.report().to_text();
  const auto offline = check_trace(run.events, tco);
  EXPECT_FALSE(offline.has_errors()) << offline.to_text();
}

TEST(HarnessCleanTest, RwClockIsCleanOnlineAndOffline) {
  RwRunConfig cfg = small_cfg();
  TraceCheckOptions tco;
  tco.eps = cfg.eps;
  tco.d1 = cfg.d1;
  tco.d2 = cfg.d2;
  tco.num_nodes = cfg.num_nodes;
  InvariantProbe probe(tco);
  ObsOptions obs;
  obs.lint = &probe;
  cfg.obs = &obs;
  ZigzagDrift drift(0.3);
  const RwRunResult run = run_rw_clock(cfg, drift);
  EXPECT_FALSE(probe.report().has_errors()) << probe.report().to_text();
  // Offline replay through a JSONL round-trip: what psc-lint would see.
  std::ostringstream os;
  write_trace_jsonl(os, run.events);
  std::istringstream is(os.str());
  const auto offline = check_trace(read_trace_jsonl(is), tco);
  EXPECT_FALSE(offline.has_errors()) << offline.to_text();
}

TEST(HarnessCleanTest, RwClockScalesClean) {
  RwRunConfig cfg = small_cfg();
  cfg.num_nodes = 10;
  cfg.ops_per_node = 4;
  TraceCheckOptions tco;
  tco.eps = cfg.eps;
  tco.d1 = cfg.d1;
  tco.d2 = cfg.d2;
  tco.num_nodes = cfg.num_nodes;
  ZigzagDrift drift(0.3);
  const RwRunResult run = run_rw_clock(cfg, drift);
  const auto offline = check_trace(run.events, tco);
  EXPECT_FALSE(offline.has_errors()) << offline.to_text();
}

TEST(HarnessCleanTest, RwMmtIsClean) {
  RwRunConfig cfg = small_cfg();
  cfg.ops_per_node = 4;
  const Duration ell = microseconds(10);
  TraceCheckOptions tco;
  tco.eps = cfg.eps;
  tco.d1 = cfg.d1;
  tco.d2 = cfg.d2;
  tco.ell = ell;
  tco.num_nodes = cfg.num_nodes;
  InvariantProbe probe(tco);
  ObsOptions obs;
  obs.lint = &probe;
  cfg.obs = &obs;
  ZigzagDrift drift(0.3);
  const RwRunResult run = run_rw_mmt(cfg, drift, ell, cfg.num_nodes + 2);
  EXPECT_FALSE(probe.report().has_errors()) << probe.report().to_text();
  const auto offline = check_trace(run.events, tco);
  EXPECT_FALSE(offline.has_errors()) << offline.to_text();
}

TEST(HarnessCleanTest, QueueClockIsClean) {
  QueueRunConfig cfg;
  cfg.num_nodes = 3;
  cfg.ops_per_node = 6;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(300);
  cfg.eps = microseconds(50);
  cfg.think_max = microseconds(300);
  cfg.horizon = seconds(30);
  cfg.validate = true;
  TraceCheckOptions tco;
  tco.eps = cfg.eps;
  tco.d1 = cfg.d1;
  tco.d2 = cfg.d2;
  tco.num_nodes = cfg.num_nodes;
  ZigzagDrift drift(0.3);
  const QueueRunResult run = run_queue_clock(cfg, drift);
  const auto offline = check_trace(run.events, tco);
  EXPECT_FALSE(offline.has_errors()) << offline.to_text();
}

// --- one window meter, three checkers ---------------------------------------
//
// TraceChecker, BoundSlackProbe and CertificateProbe evaluate their windows
// on one WindowMeter's measurements each, so they must agree: a kind's
// minimum slack is below -tolerance exactly when the checker raises its
// code, and it equals the worst margin recomputed from the raw trace; a
// certificate equal to the declared [d1, d2] fires PSC206 on exactly the
// PSC102/PSC104 events.

// Minimum slack per bound kind; kTimeMax when never measured.
struct Margins {
  Duration ceps = kTimeMax;
  Duration delivery = kTimeMax;
  Duration thm47 = kTimeMax;
  Duration mmt = kTimeMax;
};

// The worst margins of `trace` against `o`'s windows, matched by a plain
// map walk over the trace (the tag rule: ERECVMSG refreshes the tag).
Margins worst_margins(const TimedTrace& trace, const TraceCheckOptions& o) {
  Margins m;
  auto low = [](Duration& acc, Duration v) { acc = std::min(acc, v); };
  std::map<std::uint64_t, Time> sent, esent, tag;
  std::map<int, Time> last_tick, last_event;
  std::set<int> mmt_owners;
  for (const TimedEvent& e : trace) {
    const ActionName name = e.action.name;
    if (o.eps >= 0 && e.clock != kNoClockTag) {
      low(m.ceps, ceps_window(o.eps, o.ell).slack(e.clock - e.time));
    }
    if (e.action.msg.has_value()) {
      const std::uint64_t uid = e.action.msg->uid;
      const Time t = e.action.msg->clock_tag;
      if (name == "SENDMSG") {
        sent[uid] = e.time;
      } else if (name == "ESENDMSG") {
        esent[uid] = e.time;
        if (t != kNoClockTag) tag[uid] = t;
      } else if (name == "ERECVMSG" && esent.count(uid) != 0) {
        if (t != kNoClockTag) tag[uid] = t;
        if (o.d2 >= 0) {
          low(m.delivery,
              delivery_window(o.d1, o.d2).slack(e.time - esent[uid]));
        }
      } else if (name == "RECVMSG" && esent.count(uid) != 0) {
        if (o.d2 >= 0 && o.eps >= 0 && tag.count(uid) != 0 &&
            e.clock != kNoClockTag) {
          low(m.thm47,
              thm47_window(o.d1, o.d2, o.eps).slack(e.clock - tag[uid]));
        }
      } else if (name == "RECVMSG" && sent.count(uid) != 0 && o.d2 >= 0) {
        low(m.delivery, delivery_window(o.d1, o.d2).slack(e.time - sent[uid]));
      }
    }
    if (o.ell < 0) continue;
    if (name == "TICK" && e.action.node >= 0) {
      low(m.mmt, o.ell - (e.time - last_tick[e.action.node]));
      last_tick[e.action.node] = e.time;
    }
    if (e.owner >= 0) {
      if (name == "MMTSTEP") mmt_owners.insert(e.owner);
      if (mmt_owners.count(e.owner) != 0) {
        low(m.mmt, o.ell - (e.time - last_event[e.owner]));
      }
      last_event[e.owner] = e.time;
    }
  }
  return m;
}

// The two ends of the hand-built traces' one channel, 0 -> 1.
class Endpoint final : public Machine {
 public:
  explicit Endpoint(bool sender)
      : Machine(sender ? "sender" : "receiver"), sender_(sender) {}
  void declare_signature(SignatureDecl& decl) const override {
    if (sender_) {
      decl.output("SENDMSG", 0, 1);
    } else {
      decl.input("RECVMSG", 1, 0);
    }
  }
  void apply_input(const Action&, Time) override {}
  void enabled_into(Time, Candidates& out) const override {
    out.clear();
  }
  void apply_local(const Action&, Time) override {}

 private:
  bool sender_;
};

BoundCertOptions cert_opts(const TraceCheckOptions& o) {
  BoundCertOptions bo;
  bo.eps = o.eps;
  bo.d1 = o.d1;
  bo.d2 = o.d2;
  return bo;
}

struct Verdicts {
  DiagnosticReport lint;
  Margins slack;
  DiagnosticReport cert;
};

// Feeds a hand-built trace through all three checkers. The certificate's
// one edge is a channel with exactly the declared [d1, d2]; without
// declared delivery bounds it certifies nothing.
Verdicts check_three_ways(const TimedTrace& trace, const TraceCheckOptions& o) {
  Verdicts v;
  v.lint = check_trace(trace, o);
  MetricsRegistry reg;
  BoundSlackProbe slack(
      reg, SlackOptions{.eps = o.eps, .d1 = o.d1, .d2 = o.d2, .ell = o.ell});
  CertificateProbe cert(cert_opts(o));
  Endpoint sender(true), receiver(false);
  if (o.d2 >= 0) {
    Channel ch(0, 1, o.d1, o.d2, DelayPolicy::uniform(), Rng(1));
    cert.harvest({&sender, &ch, &receiver});
  }
  for (const TimedEvent& e : trace) {
    slack.on_event(e, sender);
    cert.on_event(e, sender);
  }
  v.slack = {slack.min_ceps(), slack.min_delivery(), slack.min_thm47(),
             slack.min_mmt()};
  v.cert = cert.report();
  return v;
}

std::set<std::pair<Time, std::string>> events_of(
    const DiagnosticReport& r, std::initializer_list<DiagCode> codes) {
  std::set<std::pair<Time, std::string>> out;
  for (const Diagnostic& d : r.diagnostics()) {
    if (std::find(codes.begin(), codes.end(), d.code) != codes.end()) {
      out.emplace(d.time, d.machine);
    }
  }
  return out;
}

void expect_agreement(const TimedTrace& trace, const TraceCheckOptions& o,
                      const Margins& slack, const DiagnosticReport& lint,
                      const DiagnosticReport& cert) {
  const Margins worst = worst_margins(trace, o);
  struct Kind {
    DiagCode code;
    Duration min_slack;
    Duration worst;
    Duration tolerance;  // PSC102 checks exact real latency
  };
  for (const Kind& k : {Kind{DiagCode::kClockDrift, slack.ceps, worst.ceps,
                             o.slack},
                        Kind{DiagCode::kDeliveryWindow, slack.delivery,
                             worst.delivery, 0},
                        Kind{DiagCode::kWidenedWindow, slack.thm47,
                             worst.thm47, o.slack},
                        Kind{DiagCode::kBoundmapOverrun, slack.mmt, worst.mmt,
                             o.slack}}) {
    SCOPED_TRACE(to_string(k.code));
    EXPECT_EQ(k.min_slack, k.worst);
    EXPECT_EQ(k.min_slack < -k.tolerance, lint.count(k.code) > 0)
        << "min slack " << k.min_slack << "\n"
        << lint.to_text();
  }
  EXPECT_EQ(
      events_of(cert, {DiagCode::kOutsideCertificate}),
      events_of(lint, {DiagCode::kDeliveryWindow, DiagCode::kWidenedWindow}))
      << cert.to_text() << lint.to_text();
}

TEST(MeterAgreementTest, SeededTracesAgreeAcrossTheThreeCheckers) {
  const std::vector<std::pair<TraceCheckOptions, TimedTrace>> cases = {
      {drift_opts(), drift_trace()},
      {delivery_opts(), late_delivery_trace()},
      {delivery_opts(), early_delivery_trace()},
      {delivery_opts(), sim1_late_delivery_trace()},
      {widened_opts(), widened_window_trace()},
      {boundmap_opts(), late_tick_trace()},
      {boundmap_opts(), step_gap_trace()},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const auto& [opts, trace] = cases[i];
    const Verdicts v = check_three_ways(trace, opts);
    EXPECT_TRUE(v.lint.has_errors());  // every seeded trace violates
    expect_agreement(trace, opts, v.slack, v.lint, v.cert);
  }
}

TEST(MeterAgreementTest, CleanClockAndMmtRunsAgree) {
  for (const bool mmt : {false, true}) {
    SCOPED_TRACE(mmt ? "rw-mmt" : "rw-clock");
    RwRunConfig cfg = small_cfg();
    if (mmt) cfg.ops_per_node = 4;
    TraceCheckOptions tco;
    tco.eps = cfg.eps;
    tco.d1 = cfg.d1;
    tco.d2 = cfg.d2;
    tco.ell = mmt ? microseconds(10) : -1;
    tco.num_nodes = cfg.num_nodes;
    InvariantProbe lint(tco);
    // The harness's channels run on [d1, d2], so the harvested per-edge
    // windows equal the declared ones.
    CertificateProbe cert(cert_opts(tco));
    MetricsRegistry reg;
    ObsOptions obs;
    obs.registry = &reg;
    obs.lint = &lint;
    obs.cert = &cert;
    obs.slack = true;
    cfg.obs = &obs;
    ZigzagDrift drift(0.3);
    const RwRunResult run =
        mmt ? run_rw_mmt(cfg, drift, tco.ell, cfg.num_nodes + 2)
            : run_rw_clock(cfg, drift);
    EXPECT_FALSE(lint.report().has_errors()) << lint.report().to_text();
    EXPECT_FALSE(cert.report().has_errors()) << cert.report().to_text();
    const Margins slack{run.min_slack_ceps, run.min_slack_delivery,
                        run.min_slack_thm47, run.min_slack_mmt};
    // Every kind the model exposes was measured (an MMT node's releases
    // happen inside its steps).
    EXPECT_NE(slack.ceps, kTimeMax);
    EXPECT_NE(slack.delivery, kTimeMax);
    EXPECT_NE(mmt ? slack.mmt : slack.thm47, kTimeMax);
    expect_agreement(run.events, tco, slack, lint.report(), cert.report());
  }
}

TEST(MeterAgreementTest, ReleaseIsMeasuredAgainstTheDeliveredTag) {
  // The receive buffer strips the tag before RECVMSG, so a release is
  // measured against the tag its ERECVMSG delivered. Here that tag (300us)
  // differs from the one ESENDMSG sent (100us): against it the release at
  // receiver clock 280us is 20us early; against the sent tag it would be a
  // clean 180us.
  const TraceCheckOptions opts = widened_opts();
  const TimedTrace trace{
      msg_ev("ESENDMSG", microseconds(90), 0, 1, 11, microseconds(100)),
      msg_ev("ERECVMSG", microseconds(290), 1, 0, 11, microseconds(300)),
      msg_ev("RECVMSG", microseconds(310), 1, 0, 11, kNoClockTag,
             /*clock=*/microseconds(280)),
  };
  const Verdicts v = check_three_ways(trace, opts);
  EXPECT_EQ(v.lint.count(DiagCode::kEarlyRelease), 1u);
  EXPECT_EQ(v.lint.count(DiagCode::kWidenedWindow), 1u);
  EXPECT_EQ(v.slack.thm47, -microseconds(20));
  EXPECT_EQ(v.cert.count(DiagCode::kOutsideCertificate), 1u);
  expect_agreement(trace, opts, v.slack, v.lint, v.cert);
}

// --- one meter per run ------------------------------------------------------
//
// On an executor the four metered probes evaluate the executor's one
// measurement per event; behind a forwarding probe, which hides their
// MeteredProbe face, each measures with a meter of its own. The two must
// give the same diagnostics, registry and slack minima.

// Forwards every call to `inner` unchanged, as a timing wrapper does.
class Forwarding final : public Probe {
 public:
  explicit Forwarding(Probe& inner) : inner_(inner) {}
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
    inner_.on_event(e, owner);
  }
  void on_time_advance(Time from, Time to) override {
    inner_.on_time_advance(from, to);
  }
  void on_run_end(Time now) override { inner_.on_run_end(now); }

 private:
  Probe& inner_;
};

enum class Scenario { kRwTimed, kRwClock, kRwMmt, kQueue };

constexpr Duration kSharedEll = microseconds(10);

struct Assembled {
  std::unique_ptr<Executor> exec;
  bool clocked = false;
  bool mmt = false;
  // The MMT model's stop condition: every client finished.
  std::vector<RwClient*> clients;
};

Assembled assemble(Scenario s, std::uint64_t seed) {
  const ZigzagDrift drift(0.3);
  if (s == Scenario::kQueue) {
    QueueRunConfig q;
    q.d1 = microseconds(20);
    q.d2 = microseconds(300);
    q.eps = microseconds(50);
    q.ops_per_node = 6;
    q.think_max = microseconds(300);
    q.seed = seed;
    return {assemble_queue_clock(q, drift).exec, true, false, {}};
  }
  RwRunConfig cfg = small_cfg();
  cfg.validate = false;
  cfg.seed = seed;
  switch (s) {
    case Scenario::kRwTimed:
      return {assemble_rw_timed(cfg).exec, false, false, {}};
    case Scenario::kRwClock:
      return {assemble_rw_clock(cfg, drift).exec, true, false, {}};
    default: {
      cfg.ops_per_node = 4;
      RwAssembly mmt =
          assemble_rw_mmt(cfg, drift, kSharedEll, cfg.num_nodes + 2);
      return {std::move(mmt.exec), true, true, mmt.clients};
    }
  }
}

// Which metered probes read MMT gaps (when the scenario has them).
struct GapModes {
  bool lint = true;
  bool slack = true;
};

struct MeteredOutcome {
  std::string lint, cert, registry;
  Duration ceps = 0, delivery = 0, thm47 = 0, mmt = 0;
  std::uint64_t events = 0;
  std::size_t unmatched = 0;  // PSC107: deliveries whose send was not seen
  bool operator==(const MeteredOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const MeteredOutcome& o) {
  return os << o.events << " events, slack " << o.ceps << "/" << o.delivery
            << "/" << o.thm47 << "/" << o.mmt << "\n"
            << o.lint << o.cert << o.registry;
}

// Runs one scenario with the invariant, certificate, slack and channel
// latency probes attached directly or each behind a Forwarding probe.
// `split_at` > 0 stops the first run() after that many events and runs
// the rest in a second run() with the same probes.
MeteredOutcome run_metered(Scenario s, std::uint64_t seed, bool forwarded,
                           GapModes gaps = {}, std::uint64_t split_at = 0) {
  Assembled a = assemble(s, seed);
  Executor& exec = *a.exec;
  const Duration d1 = microseconds(20);
  const Duration d2 = microseconds(300);
  const Duration eps = a.clocked ? microseconds(50) : -1;
  TraceCheckOptions tco;
  tco.eps = eps;
  tco.d1 = d1;
  tco.d2 = d2;
  tco.ell = a.mmt && gaps.lint ? kSharedEll : -1;
  tco.num_nodes = 3;
  InvariantProbe lint(tco);
  CertificateProbe cert(cert_opts(tco));
  cert.harvest(exec.composition());
  MetricsRegistry reg;
  BoundSlackProbe slack(reg, SlackOptions{
                                 .eps = eps,
                                 .d1 = d1,
                                 .d2 = d2,
                                 .ell = a.mmt && gaps.slack ? kSharedEll : -1,
                             });
  ChannelLatencyProbe latency(reg, d1, d2);
  std::vector<std::unique_ptr<Forwarding>> wrappers;
  for (Probe* p : std::initializer_list<Probe*>{&lint, &cert, &slack,
                                                &latency}) {
    if (forwarded) {
      wrappers.push_back(std::make_unique<Forwarding>(*p));
      p = wrappers.back().get();
    }
    exec.attach_probe(p);
  }
  std::uint64_t limit = split_at;
  if (split_at > 0) {
    exec.stop_when([&exec, &limit, &clients = a.clients] {
      return exec.stats().events >= limit ||
             (!clients.empty() &&
              std::all_of(clients.begin(), clients.end(),
                          [](const RwClient* c) { return c->finished(); }));
    });
    exec.run();
    EXPECT_EQ(exec.stats().events, split_at);
    limit = UINT64_MAX;
  }
  exec.run();
  MeteredOutcome o;
  o.lint = lint.report().to_text();
  o.cert = cert.report().to_text();
  std::ostringstream jsonl;
  reg.write_jsonl(jsonl);
  o.registry = jsonl.str();
  o.ceps = slack.min_ceps();
  o.delivery = slack.min_delivery();
  o.thm47 = slack.min_thm47();
  o.mmt = slack.min_mmt();
  o.events = exec.stats().events;
  o.unmatched = lint.report().count(DiagCode::kUnknownDelivery);
  return o;
}

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kRwTimed: return "rw-timed";
    case Scenario::kRwClock: return "rw-clock";
    case Scenario::kRwMmt: return "rw-mmt";
    case Scenario::kQueue: return "queue";
  }
  return "?";
}

TEST(SharedMeterTest, ExecutorMeterMatchesEachProbesOwn) {
  for (const Scenario s : {Scenario::kRwTimed, Scenario::kRwClock,
                           Scenario::kRwMmt, Scenario::kQueue}) {
    for (const std::uint64_t seed : {1u, 7919u}) {
      SCOPED_TRACE(std::string(scenario_name(s)) + " seed " +
                   std::to_string(seed));
      const MeteredOutcome shared = run_metered(s, seed, false);
      EXPECT_EQ(shared, run_metered(s, seed, true));
      // Every kind the model exposes was measured.
      EXPECT_NE(shared.delivery, kTimeMax);
      EXPECT_EQ(shared.ceps == kTimeMax, s == Scenario::kRwTimed);
      EXPECT_EQ(shared.mmt == kTimeMax, s != Scenario::kRwMmt);
      EXPECT_NE(shared.registry.find("channel.latency_ns"), std::string::npos);
    }
  }
}

TEST(SharedMeterTest, ConsumersIgnoreGapsTheyDidNotAskFor) {
  // In the MMT model the executor's meter measures gaps when any metered
  // probe wants them; the others must read as with a gapless meter of
  // their own.
  for (const GapModes gaps : {GapModes{.lint = true, .slack = false},
                              GapModes{.lint = false, .slack = true},
                              GapModes{.lint = false, .slack = false}}) {
    SCOPED_TRACE(std::string("lint gaps ") + (gaps.lint ? "on" : "off") +
                 ", slack gaps " + (gaps.slack ? "on" : "off"));
    const MeteredOutcome shared = run_metered(Scenario::kRwMmt, 1, false, gaps);
    EXPECT_EQ(shared, run_metered(Scenario::kRwMmt, 1, true, gaps));
    EXPECT_EQ(shared.mmt == kTimeMax, !gaps.slack);
  }
}

TEST(SharedMeterTest, ProbesKeptAcrossTwoRunsSeeOneLedger) {
  // The executor's meter lives as long as the executor, as a probe's own
  // meter outlives a run: a message sent in the first run() and delivered
  // in the second is matched across the cut, and the two runs measure what
  // the uncut run measures.
  for (const Scenario s : {Scenario::kRwClock, Scenario::kRwMmt}) {
    SCOPED_TRACE(scenario_name(s));
    const MeteredOutcome whole = run_metered(s, 7919, false);
    const std::uint64_t cut = whole.events / 2;
    const MeteredOutcome split = run_metered(s, 7919, false, {}, cut);
    EXPECT_EQ(split, run_metered(s, 7919, true, {}, cut));
    EXPECT_GT(split.events, cut);
    EXPECT_EQ(split.unmatched, 0u) << split.lint;
    EXPECT_EQ(split.registry, whole.registry);
  }
}

}  // namespace
}  // namespace psc
