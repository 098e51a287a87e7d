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
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lint.hpp"
#include "analysis/trace_check.hpp"
#include "channel/channel.hpp"
#include "clock/trajectory.hpp"
#include "core/relations.hpp"
#include "core/trace_io.hpp"
#include "mmt/tick_source.hpp"
#include "obs/instrument.hpp"
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
  std::vector<Action> enabled(Time) const override { return {}; }
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

TEST(TraceCheckTest, ClockDriftOutsideBandIsPSC101) {
  TraceCheckOptions opts;
  opts.eps = microseconds(1);
  TimedTrace trace{
      ev("A", milliseconds(1), 0, kNoNode, milliseconds(1) + microseconds(10)),
  };
  const auto report = check_trace(trace, opts);
  EXPECT_EQ(report.count(DiagCode::kClockDrift), 1u);
  // Within the band: clean.
  TimedTrace ok{ev("A", milliseconds(1), 0, kNoNode,
                   milliseconds(1) + microseconds(1) - 100)};
  EXPECT_TRUE(check_trace(ok, opts).empty());
}

TEST(TraceCheckTest, OutOfWindowDeliveryIsPSC102) {
  TraceCheckOptions opts;
  opts.d1 = microseconds(20);
  opts.d2 = microseconds(300);
  // Timed model: SENDMSG -> RECVMSG, delivered way past d2.
  TimedTrace late{
      msg_ev("SENDMSG", 0, 0, 1, 7),
      msg_ev("RECVMSG", microseconds(500), 1, 0, 7),
  };
  EXPECT_EQ(check_trace(late, opts).count(DiagCode::kDeliveryWindow), 1u);
  // Under d1 is also a violation.
  TimedTrace early{
      msg_ev("SENDMSG", 0, 0, 1, 8),
      msg_ev("RECVMSG", microseconds(5), 1, 0, 8),
  };
  EXPECT_EQ(check_trace(early, opts).count(DiagCode::kDeliveryWindow), 1u);
  // In-window: clean.
  TimedTrace ok{
      msg_ev("SENDMSG", 0, 0, 1, 9),
      msg_ev("RECVMSG", microseconds(100), 1, 0, 9),
  };
  EXPECT_TRUE(check_trace(ok, opts).empty());
  // Simulation 1: the physical pair is ESENDMSG -> ERECVMSG.
  TimedTrace sim1_late{
      msg_ev("ESENDMSG", 0, 0, 1, 10, /*tag=*/0),
      msg_ev("ERECVMSG", microseconds(400), 1, 0, 10, /*tag=*/0),
  };
  EXPECT_EQ(check_trace(sim1_late, opts).count(DiagCode::kDeliveryWindow),
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
  TraceCheckOptions opts;
  opts.eps = microseconds(50);
  opts.d1 = microseconds(20);
  opts.d2 = microseconds(300);
  const Time tag = microseconds(100);
  // Clock-time latency 500us > d2 + 2eps = 400us. Real-time latency is kept
  // in [d1, d2] and receiver clocks near real time so only PSC104 fires.
  TimedTrace trace{
      msg_ev("ESENDMSG", microseconds(90), 0, 1, 6, tag),
      msg_ev("ERECVMSG", microseconds(290), 1, 0, 6, tag),
      msg_ev("RECVMSG", microseconds(310), 1, 0, 6, kNoClockTag,
             /*clock=*/tag + microseconds(500)),
  };
  const auto report = check_trace(trace, opts);
  EXPECT_EQ(report.count(DiagCode::kWidenedWindow), 1u);
  EXPECT_EQ(report.count(DiagCode::kEarlyRelease), 0u);
}

TEST(TraceCheckTest, BoundmapOverrunIsPSC105) {
  TraceCheckOptions opts;
  opts.ell = microseconds(10);
  // First tick 50us after time 0 blows the [0, ell] boundmap.
  TimedTrace trace{ev("TICK", microseconds(50), 0)};
  EXPECT_EQ(check_trace(trace, opts).count(DiagCode::kBoundmapOverrun), 1u);
  // Ticks every <= ell: clean.
  TimedTrace ok{
      ev("TICK", microseconds(8), 0),
      ev("TICK", microseconds(16), 0),
  };
  EXPECT_TRUE(check_trace(ok, opts).empty());
  // An MMT node (recognized by its MMTSTEP) must also step every <= ell.
  TimedTrace step_gap{
      ev("MMTSTEP", microseconds(5), 0),
      ev("MMTSTEP", microseconds(40), 0),
  };
  EXPECT_EQ(check_trace(step_gap, opts).count(DiagCode::kBoundmapOverrun),
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

}  // namespace
}  // namespace psc
