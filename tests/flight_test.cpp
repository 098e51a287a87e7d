// Flight recorder (obs/flight.hpp): the always-on binary ring must decode
// back to exactly the event stream the probes saw, dump a usable window on
// an invariant violation, evict oldest-first, and report channel-latency
// percentiles inside the configured delivery window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
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

TEST(FlightRecorderTest, ChannelHistogramWithinDeliveryWindow) {
  FloodRun run(1);
  const LogHistogram& chan = run.rec.channel_hist();
  ASSERT_GT(chan.count(), 0u);
  // Flood's ring carries every hop through a [50us, 200us] channel; the
  // log-bucketed histogram quantizes upward by < 1 sub-bucket (~3%).
  EXPECT_GE(chan.min(), 50'000);
  EXPECT_LE(chan.max(), 200'000);
  EXPECT_GE(chan.p50(), 50'000);
  EXPECT_LE(chan.p50(), 200'000 * 1.04);
  EXPECT_GE(chan.p99(), chan.p50());
  EXPECT_LE(chan.p999(), 200'000 * 1.04);
}

std::size_t count_named(const TimedTrace& events, const char* name) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [name](const TimedEvent& e) {
        return e.action.name == name;
      }));
}

// The step samples a run books: one per event after its owner's first.
std::size_t step_gaps(const TimedTrace& events) {
  std::set<int> owners;
  for (const TimedEvent& e : events) owners.insert(e.owner);
  return events.size() - owners.size();
}

// Message uids and owner indices are per executor, so a recorder that
// observes several runs (psc-report reuses one per sweep cell) must forget
// what the last run left behind: the clock-model run below is cut while
// messages sit in its channels and receive buffers, and the timed run
// after it reuses their uids and owner indices. A stale arrival would book
// a timed delivery as a buffer hold and drop its channel sample, and a
// stale owner time would book a step gap across the two runs.
TEST(FlightRecorderTest, RebindForgetsMessagesLeftInFlight) {
  FlightRecorder rec;
  ObsOptions oo;
  oo.flight = &rec;
  RwRunConfig cfg;
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
  const RwRunResult first = run_rw_clock(cut, drift);
  // The cut left messages in flight: some ESENDMSG never arrived, and some
  // arrival was never released by its receive buffer.
  const std::size_t arrived = count_named(first.events, "ERECVMSG");
  ASSERT_LT(arrived, count_named(first.events, "ESENDMSG"));
  ASSERT_LT(count_named(first.events, "RECVMSG"), arrived);

  RwRunConfig timed = cfg;
  timed.super = false;  // Algorithm L: the timed model has no eps to wait
  const RwRunResult second = run_rw_timed(timed);
  const std::size_t delivered = count_named(second.events, "RECVMSG");
  ASSERT_GT(delivered, 0u);

  const LogHistogram& chan = rec.channel_hist();
  EXPECT_EQ(chan.count(), arrived + delivered);
  EXPECT_GE(chan.min(), static_cast<std::uint64_t>(cfg.d1));
  EXPECT_LE(chan.max(), static_cast<std::uint64_t>(cfg.d2));
  EXPECT_EQ(rec.hold_hist().count(), count_named(first.events, "RECVMSG"));

  std::set<std::string> names;
  for (const RwRunResult* run : {&first, &second}) {
    for (const TimedEvent& e : run->events) names.insert(e.action.name.str());
  }
  std::uint64_t steps = 0;
  for (const std::string& n : names) {
    if (const LogHistogram* h = rec.step_hist(n)) steps += h->count();
  }
  EXPECT_EQ(steps, step_gaps(first.events) + step_gaps(second.events));
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

TEST(LogHistogramTest, BucketsAreMonotoneAndPercentilesBound) {
  LogHistogram h;
  for (std::int64_t v : {1, 1, 2, 3, 100, 1000, 1000000}) h.add(v);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000000);
  EXPECT_LE(h.p50(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
  // The top percentile is clamped to the observed maximum, not the bucket
  // upper edge.
  EXPECT_EQ(h.p999(), 1000000);
  // Index must be monotone nondecreasing in the value.
  std::size_t prev = 0;
  for (std::int64_t v = 1; v < 1'000'000; v = v * 3 / 2 + 1) {
    const std::size_t i = LogHistogram::index(v);
    EXPECT_GE(i, prev) << "index not monotone at " << v;
    EXPECT_LE(static_cast<std::uint64_t>(v), LogHistogram::bucket_max(i))
        << "value above its bucket edge at " << v;
    prev = i;
  }
}

TEST(UidTimeMapTest, PutTakeSurvivesGrowthAndTombstones) {
  UidTimeMap m;
  for (std::uint64_t u = 0; u < 3000; ++u) m.put(u, static_cast<Time>(u * 7));
  for (std::uint64_t u = 0; u < 3000; u += 2) {
    Time t = -1;
    EXPECT_TRUE(m.take(u, &t));
    EXPECT_EQ(t, static_cast<Time>(u * 7));
  }
  for (std::uint64_t u = 0; u < 3000; u += 2) {
    Time t = -1;
    EXPECT_FALSE(m.take(u, &t)) << u;  // already taken
  }
  for (std::uint64_t u = 1; u < 3000; u += 2) {
    Time t = -1;
    EXPECT_TRUE(m.take(u, &t)) << u;
    EXPECT_EQ(t, static_cast<Time>(u * 7));
  }
}

}  // namespace
}  // namespace psc
