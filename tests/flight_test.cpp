// Flight recorder (obs/flight.hpp): the always-on binary ring must decode
// back to exactly the event stream the probes saw, dump a usable window on
// an invariant violation, evict oldest-first, and record runs observed in
// sequence one after the other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "algos/flood.hpp"
#include "analysis/trace_check.hpp"
#include "clock/discipline.hpp"
#include "core/trace_io.hpp"
#include "obs/flight.hpp"
#include "obs/instrument.hpp"
#include "runtime/system.hpp"
#include "rw/harness.hpp"
#include "rw/queue.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

struct FloodRun {
  FlightRecorder rec;
  TimedTrace events;

  explicit FloodRun(std::uint64_t seed, const FlightOptions& fo = {})
      : rec(fo) {
    Executor exec({.horizon = seconds(60), .seed = seed});
    const Graph g = Graph::ring(5);
    ChannelConfig cc;
    cc.d1 = microseconds(50);
    cc.d2 = microseconds(200);
    cc.seed = seed ^ 0xf100d;
    add_timed_system(exec, g, cc,
                     make_flood_nodes(g, /*source=*/0, /*payload=*/42,
                                      /*hops_bound=*/g.n, cc.d2,
                                      /*margin=*/microseconds(10)));
    exec.attach_flight(&rec);
    exec.run();
    events = exec.events();
  }
};

TEST(FlightRecorderTest, FloodDecodeMatchesLiveTrace) {
  for (const std::uint64_t seed : {1u, 2u}) {
    FloodRun run(seed);
    ASSERT_GT(run.events.size(), 0u);
    EXPECT_EQ(run.rec.total_recorded(), run.events.size());
    EXPECT_EQ(run.rec.dropped(), 0u);
    const TimedTrace decoded = decode_snapshot(run.rec.snapshot());
    EXPECT_EQ(trace_to_text(decoded), trace_to_text(run.events))
        << "flood seed " << seed;
  }
}

TEST(FlightRecorderTest, SnapshotRoundTripsThroughFile) {
  FloodRun run(1);
  const std::string path = ::testing::TempDir() + "flight_roundtrip.fly";
  ASSERT_TRUE(run.rec.dump(path));
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  const FlightSnapshot snap = read_snapshot(is);
  EXPECT_EQ(snap.total_recorded, run.events.size());
  EXPECT_EQ(trace_to_text(decode_snapshot(snap)), trace_to_text(run.events));
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, RwClockDecodeMatchesLiveTrace) {
  for (const std::uint64_t seed : {1u, 2u}) {
    FlightRecorder rec;
    ObsOptions oo;
    oo.flight = &rec;
    RwRunConfig cfg;
    cfg.num_nodes = 3;
    cfg.ops_per_node = 8;
    cfg.seed = seed;
    cfg.obs = &oo;
    ZigzagDrift drift(0.3);
    const RwRunResult run = run_rw_clock(cfg, drift);
    ASSERT_GT(run.events.size(), 0u);
    EXPECT_EQ(rec.total_recorded(), run.events.size());
    const TimedTrace decoded = decode_snapshot(rec.snapshot());
    EXPECT_EQ(trace_to_text(decoded), trace_to_text(run.events))
        << "rw-clock seed " << seed;
  }
}

TEST(FlightRecorderTest, QueueDecodeMatchesLiveTrace) {
  for (const std::uint64_t seed : {1u, 2u}) {
    FlightRecorder rec;
    ObsOptions oo;
    oo.flight = &rec;
    QueueRunConfig cfg;
    cfg.num_nodes = 3;
    cfg.ops_per_node = 6;
    cfg.seed = seed;
    cfg.obs = &oo;
    ZigzagDrift drift(0.3);
    const QueueRunResult run = run_queue_clock(cfg, drift);
    ASSERT_GT(run.events.size(), 0u);
    EXPECT_EQ(rec.total_recorded(), run.events.size());
    const TimedTrace decoded = decode_snapshot(rec.snapshot());
    EXPECT_EQ(trace_to_text(decoded), trace_to_text(run.events))
        << "queue seed " << seed;
  }
}

// Seed a PSC102 violation (the checker's window is narrower than the
// channel's real [d1, d2]) and take the dump exactly where psc-sim does —
// inside TraceCheckOptions::on_violation. The snapshot must still hold the
// offending delivery, and replaying it offline must flag the same code.
TEST(FlightRecorderTest, DumpOnViolationCapturesOffendingUid) {
  TraceCheckOptions lo;
  lo.d1 = microseconds(50);
  lo.d2 = microseconds(100);  // real channel delivers within [50us, 200us]
  lo.num_nodes = 5;

  FlightSnapshot snap;
  std::string first_message;
  int violations = 0;
  FlightRecorder* live = nullptr;
  lo.on_violation = [&](const Diagnostic& d) {
    EXPECT_EQ(d.code, DiagCode::kDeliveryWindow);
    if (violations++ == 0) {
      first_message = d.message;
      snap = live->snapshot();
    }
  };

  FlightRecorder rec;
  {
    Executor exec({.horizon = seconds(60), .seed = 1});
    const Graph g = Graph::ring(5);
    ChannelConfig cc;
    cc.d1 = microseconds(50);
    cc.d2 = microseconds(200);
    cc.seed = 1 ^ 0xf100d;
    add_timed_system(exec, g, cc,
                     make_flood_nodes(g, 0, 42, g.n, cc.d2,
                                      microseconds(10)));
    exec.attach_flight(&rec);
    live = &rec;
    InvariantProbe probe(lo);
    exec.attach_probe(&probe);
    exec.run();
    ASSERT_GT(violations, 0) << "narrowed window raised no PSC102";
    EXPECT_TRUE(probe.report().has_errors());
  }

  // "uid N delivered after ..." — recover the offending uid.
  std::uint64_t uid = 0;
  ASSERT_EQ(first_message.rfind("uid ", 0), 0u) << first_message;
  {
    std::istringstream is(first_message.substr(4));
    is >> uid;
    ASSERT_TRUE(is) << first_message;
  }

  const TimedTrace decoded = decode_snapshot(snap);
  ASSERT_GT(decoded.size(), 0u);
  bool found = false;
  for (const TimedEvent& e : decoded) {
    if (e.action.msg.has_value() && e.action.msg->uid == uid) found = true;
  }
  EXPECT_TRUE(found) << "snapshot lost the offending uid " << uid;

  // The recorded window replays through the offline checker with the same
  // verdict (PSC107 unknown-delivery warns are expected for uids whose send
  // fell outside the window; the *error* must be the delivery window).
  TraceCheckOptions replay = lo;
  replay.on_violation = nullptr;
  const DiagnosticReport rep = check_trace(decoded, replay);
  EXPECT_TRUE(rep.has_errors());
  bool has_psc102 = false;
  for (const Diagnostic& d : rep.diagnostics()) {
    if (d.code == DiagCode::kDeliveryWindow) has_psc102 = true;
  }
  EXPECT_TRUE(has_psc102);
}

TEST(FlightRecorderTest, RingEvictsOldestAndKeepsLastWindow) {
  FlightOptions fo;
  fo.ring_capacity = 8;
  FloodRun run(1, fo);
  ASSERT_GT(run.events.size(), 8u) << "cell too small to exercise eviction";
  EXPECT_EQ(run.rec.total_recorded(), run.events.size());
  EXPECT_EQ(run.rec.retained(), 8u);
  EXPECT_EQ(run.rec.dropped(), run.events.size() - 8);

  const TimedTrace decoded = decode_snapshot(run.rec.snapshot());
  ASSERT_EQ(decoded.size(), 8u);
  const TimedTrace tail(run.events.end() - 8, run.events.end());
  EXPECT_EQ(trace_to_text(decoded), trace_to_text(tail));
}

std::size_t count_named(const TimedTrace& events, const char* name) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [name](const TimedEvent& e) {
        return e.action.name == name;
      }));
}

// Two runs observed in sequence, as psc-report observes one cell's seeds:
// a clock-model run cut while messages sit in its channels and receive
// buffers, then a timed run that reuses their uids and owner indices.
struct CutThenTimed {
  RwRunConfig cfg;
  RwRunResult first, second;

  explicit CutThenTimed(const ObsOptions& oo) {
    cfg.num_nodes = 3;
    cfg.d1 = microseconds(10);
    cfg.d2 = microseconds(60);
    cfg.eps = microseconds(100);
    cfg.ops_per_node = 40;
    cfg.think_max = microseconds(50);
    cfg.write_fraction = 1.0;
    cfg.seed = 2;
    cfg.obs = &oo;

    RwRunConfig cut = cfg;
    cut.horizon = microseconds(1100);
    OpposingOffsetDrift drift;
    first = run_rw_clock(cut, drift);

    RwRunConfig timed = cfg;
    timed.super = false;  // Algorithm L: the timed model has no eps to wait
    second = run_rw_timed(timed);
  }
};

// One recorder rebound across both runs holds exactly the two traces, one
// after the other.
TEST(FlightRecorderTest, RebindRecordsRunsInSequence) {
  FlightRecorder rec({.ring_capacity = std::size_t{1} << 16});
  ObsOptions oo;
  oo.flight = &rec;
  const CutThenTimed runs(oo);
  ASSERT_GT(runs.first.events.size(), 0u);
  ASSERT_GT(runs.second.events.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);

  TimedTrace both = runs.first.events;
  both.insert(both.end(), runs.second.events.begin(),
              runs.second.events.end());
  EXPECT_EQ(trace_to_text(decode_snapshot(rec.snapshot())),
            trace_to_text(both));
}

// One registry shared by both runs (psc-report's per-cell pattern)
// measures each run's own messages: the cut run's undelivered sends and
// unreleased arrivals must not pair with the timed run's reused uids.
TEST(SharedRegistryTest, CutRunLeavesNoMessageToTheNext) {
  MetricsRegistry reg;
  ObsOptions oo;
  oo.registry = &reg;
  const CutThenTimed runs(oo);
  // The cut left messages in flight: some ESENDMSG never arrived, and some
  // arrival was never released by its receive buffer.
  const std::size_t arrived = count_named(runs.first.events, "ERECVMSG");
  const std::size_t released = count_named(runs.first.events, "RECVMSG");
  ASSERT_LT(arrived, count_named(runs.first.events, "ESENDMSG"));
  ASSERT_LT(released, arrived);
  const std::size_t delivered = count_named(runs.second.events, "RECVMSG");
  ASSERT_GT(delivered, 0u);

  const Histogram* chan = reg.find_histogram("channel.latency_ns");
  ASSERT_NE(chan, nullptr);
  EXPECT_EQ(chan->count(), arrived + delivered);
  EXPECT_GE(chan->min(), static_cast<double>(runs.cfg.d1));
  EXPECT_LE(chan->max(), static_cast<double>(runs.cfg.d2));
  const Histogram* hold = reg.find_histogram("sim1.recv.hold_ns");
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), released);
}

// Every event the executor records carries its interned kind id; the
// recorder keys its kind table by it, so an event without one is an error
// rather than a silent second interning path.
TEST(FlightRecorderTest, EventWithoutKindIdIsRejected) {
  FlightRecorder rec;
  TimedEvent e;
  e.action = make_action("X", 0);
  e.owner = 0;
  ASSERT_EQ(e.kind, kNoKind);
  EXPECT_THROW(rec.record(e), CheckError);
  EXPECT_EQ(rec.total_recorded(), 0u);
}

}  // namespace
}  // namespace psc
