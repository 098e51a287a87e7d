// Axiom property tests: the MachineFuzzer drives every machine class in
// the library — each algorithm, channel, buffer, client and adapter, and
// the Simulation 1 node composite bare, clocked and under the MMT wrapper —
// through randomized schedules and checks the executable automaton axioms
// (see runtime/fuzzer.hpp). Also tests the renaming operator.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "algos/election.hpp"
#include "algos/flood.hpp"
#include "algos/heartbeat.hpp"
#include "algos/tdma.hpp"
#include "algos/timesync.hpp"
#include "algos/tobcast.hpp"
#include "channel/channel.hpp"
#include "clock/trajectory.hpp"
#include "core/trace_io.hpp"
#include "mmt/mmt_node.hpp"
#include "mmt/tick_source.hpp"
#include "runtime/fuzzer.hpp"
#include "runtime/renamed.hpp"
#include "runtime/script.hpp"
#include "util/check.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "rw/multi.hpp"
#include "rw/queue.hpp"
#include "rw/sliced.hpp"
#include "transform/buffers.hpp"
#include "transform/clock_system.hpp"

namespace psc {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, ChannelSatisfiesAxioms) {
  Channel ch(0, 1, microseconds(5), microseconds(50), DelayPolicy::uniform(),
             Rng(GetParam()));
  MachineFuzzer fuzz(ch, GetParam());
  fuzz.set_input_generator([](Time, Rng& rng) -> std::optional<Action> {
    if (rng.flip(0.7)) return make_send(0, 1, make_message("M"));
    return std::nullopt;
  });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.actions_executed, 100u);
  EXPECT_GT(report.recycled_refills, 10u);
}

TEST_P(FuzzSeeds, SendBufferSatisfiesAxioms) {
  SendBuffer sb(0, 1);
  MachineFuzzer fuzz(sb, GetParam());
  fuzz.set_input_generator([](Time, Rng& rng) -> std::optional<Action> {
    if (rng.flip(0.5)) return make_send(0, 1, make_message("M"));
    return std::nullopt;
  });
  EXPECT_GT(fuzz.run(2000).recycled_refills, 10u);
}

TEST_P(FuzzSeeds, ReceiveBufferSatisfiesAxioms) {
  ReceiveBuffer rb(1, 0);
  MachineFuzzer fuzz(rb, GetParam());
  fuzz.set_input_generator([](Time t, Rng& rng) -> std::optional<Action> {
    if (!rng.flip(0.5)) return std::nullopt;
    Message m = make_message("M");
    // Tags around the current time: some deliverable now, some in the
    // future (to be held).
    m.clock_tag = std::max<Time>(0, t + rng.uniform(-microseconds(50),
                                                    microseconds(50)));
    return make_recv(0, 1, std::move(m), "ERECVMSG");
  });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.inputs_injected, 100u);
  EXPECT_GT(report.recycled_refills, 10u);
}

TEST_P(FuzzSeeds, RwAlgorithmSatisfiesAxioms) {
  RwParams p;
  p.node = 0;
  p.num_nodes = 2;
  p.c = microseconds(10);
  p.d2_prime = microseconds(100);
  p.two_eps = microseconds(20);
  RwAlgorithm algo(p);
  // Kick one read and one write off directly (the client protocol is
  // exercised at length by the rw tests; the fuzzer's job is the axioms
  // under message chaos). The write's SENDMSGs carry messages through
  // axiom A8's recycled buffer.
  algo.apply_input(make_action("READ", 0), 0);
  algo.apply_input(make_action("WRITE", 0, {Value{7}}), 0);
  MachineFuzzer fuzz(algo, GetParam());
  fuzz.set_input_generator([](Time t, Rng& rng) -> std::optional<Action> {
    if (!rng.flip(0.5)) return std::nullopt;
    Message m = make_message(
        "UPDATE", {Value{rng.uniform(0, 1 << 20)},
                   Value{t + rng.uniform(0, microseconds(200))}});
    return make_recv(0, 1, std::move(m));
  });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.actions_executed, 100u);  // updates kept applying
  EXPECT_GT(report.recycled_refills, 10u);
}

// The generator answers the client's outstanding invocation. It runs at
// every step (input probability 1) before the fuzzer executes anything,
// so it sees each READ/WRITE the client offers before the fuzzer issues it.
TEST_P(FuzzSeeds, RwClientSatisfiesAxioms) {
  ClientOptions o;
  o.num_ops = 400;
  o.think_max = microseconds(20);
  o.seed = GetParam();
  RwClient client(o);
  MachineFuzzer fuzz(client, GetParam());
  fuzz.set_input_probability(1.0);
  std::string offered;
  std::size_t completed = 0;
  fuzz.set_input_generator(
      [&](Time t, Rng& rng) -> std::optional<Action> {
        const bool busy =
            client.upper_bound(t) == kTimeMax && !client.finished();
        if (!busy) {
          const std::vector<Action> offer = client.enabled(t);
          if (!offer.empty()) offered = offer.front().name;
          return std::nullopt;
        }
        if (!rng.flip(0.5)) return std::nullopt;
        ++completed;
        return offered == "READ"
                   ? make_action("RETURN", 0, {Value{std::int64_t{3}}})
                   : make_action("ACK", 0);
      });
  const auto report = fuzz.run(4000);
  EXPECT_GT(report.actions_executed, 100u);
  EXPECT_GT(report.recycled_refills, 10u);
  EXPECT_EQ(client.operations().size(), completed);
  const auto& ops = client.operations();
  EXPECT_TRUE(std::any_of(ops.begin(), ops.end(), [](const Operation& op) {
    return op.kind == Operation::Kind::kWrite;
  }));
  EXPECT_TRUE(std::any_of(ops.begin(), ops.end(), [](const Operation& op) {
    return op.kind == Operation::Kind::kRead;
  }));
}

// Polls are pure: a machine offers its sends unnamed (uid 0) on every
// poll, whether the poll builds a fresh list (enabled) or refills a
// recycled one (enabled_into) whose slots still hold named messages from
// earlier events, and the two lists agree in every field. Performing one
// send at a time, named as the executor names it, leaves the others
// offered.
void expect_pure_polls(Machine& m, std::size_t sends) {
  std::uint64_t next_uid = 1;
  Action named = make_send(0, 1, make_message("STALE"));
  name_message(named, next_uid);
  Candidates recycled;
  for (std::size_t k = 0; k < sends + 2; ++k) recycled.push_back(named);
  for (; sends > 0; --sends) {
    for (int k = 0; k < 3; ++k) {
      const std::vector<Action> fresh = m.enabled(0);
      m.enabled_into(0, recycled);
      EXPECT_EQ(recycled.to_vector(), fresh) << m.name() << " poll " << k;
      std::size_t offered = 0;
      for (const Action& a : fresh) {
        if (a.name != "SENDMSG") continue;
        ++offered;
        ASSERT_TRUE(a.msg.has_value());
        EXPECT_EQ(a.msg->uid, 0u) << to_string(a);
      }
      EXPECT_EQ(offered, sends) << m.name() << " poll " << k;
    }
    const auto send = std::find_if(
        recycled.begin(), recycled.end(),
        [](const Action& a) { return a.name == "SENDMSG"; });
    ASSERT_NE(send, recycled.end());
    name_message(*send, next_uid);
    m.apply_local(*send, 0);
  }
  m.enabled_into(0, recycled);
  EXPECT_TRUE(std::none_of(recycled.begin(), recycled.end(),
                           [](const Action& a) { return a.name == "SENDMSG"; }))
      << m.name();
}

TEST(RecycledPolls, SendsAreOfferedUnnamedOnEveryPoll) {
  RwParams p;
  p.node = 0;
  p.num_nodes = 3;
  p.d2_prime = microseconds(100);
  RwAlgorithm algo(p);
  algo.apply_input(make_action("WRITE", 0, {Value{7}}), 0);
  expect_pure_polls(algo, 3);  // a write updates every node, itself included

  FloodParams f;
  f.source = true;
  f.peers = {1, 2, 3};
  f.d2_design = milliseconds(1);
  FloodNode flood(f);
  const std::vector<Action> first = flood.enabled(0);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first.front().name, "DELIVER");
  flood.apply_local(first.front(), 0);
  expect_pure_polls(flood, 3);
}

// The retention path as an executor slot takes it (axiom A8): a poll into
// a list that retains more stale Actions than the poll fills, each with a
// named message and args; the machine's own steps, each consuming the
// front candidate as execute_fast does (swapping a stale Action in), until
// a poll comes back empty; then a later poll that refills the retained
// Actions. Every poll equals a fresh one in every field.
Action stale_action() {
  Action a = make_send(
      7, 8, make_message("STALE", {Value{std::string("m")}, Value{1.5}}));
  a.args = {Value{std::int64_t{-1}}, Value{std::string("stale")}};
  a.msg->uid = 4242;
  a.msg->clock_tag = 777;
  return a;
}

void expect_retention(Machine& m, Time t) {
  Candidates out;
  for (int k = 0; k < 6; ++k) out.push_back(stale_action());
  out.clear();
  if (m.enabled(t).empty()) t = m.next_enabled(t);
  const auto poll = [&](const char* what) {
    m.enabled_into(t, out);
    EXPECT_EQ(out.to_vector(), m.enabled(t))
        << m.name() << ": " << what << " poll at " << format_time(t);
  };
  poll("stuffed");
  ASSERT_FALSE(out.empty()) << m.name();
  ASSERT_LT(out.size(), out.retained()) << m.name();
  std::uint64_t next_uid = 1;
  while (!out.empty()) {
    Action performed = stale_action();
    swap(performed, out[0]);
    name_message(performed, next_uid);
    m.apply_local(performed, t);
    poll("drained");
  }
  EXPECT_EQ(out.retained(), 6u) << m.name();
  t = m.next_enabled(t);
  ASSERT_LT(t, kTimeMax) << m.name();
  poll("refilled");
  EXPECT_FALSE(out.empty()) << m.name();
}

TEST(RecycledPolls, RetainedActionsSurviveAnEmptyPollAndRefill) {
  Rng r(3);
  auto traj = std::make_shared<ClockTrajectory>(
      ZigzagDrift(0.3).generate(microseconds(50), seconds(1), r));
  TickSource ticks(0, traj, microseconds(10), Rng(5));
  expect_retention(ticks, 0);

  Channel ch(0, 1, microseconds(5), microseconds(50), DelayPolicy::uniform(),
             Rng(7));
  for (std::uint64_t uid = 1; uid <= 3; ++uid) {
    Action send = make_send(0, 1, make_message("M", {Value{std::int64_t{2}}}));
    send.msg->uid = uid;
    ch.apply_input(send, 0);
  }
  expect_retention(ch, 0);

  RwParams p;
  p.node = 0;
  p.num_nodes = 3;
  p.d2_prime = microseconds(100);
  RwAlgorithm algo(p);
  algo.apply_input(make_action("WRITE", 0, {Value{7}}), 0);
  expect_retention(algo, 0);
}

// Interned names read back from a trace are the names written: the same
// id, so they compare, hash and pack into kind keys as the originals do.
TEST(RecycledPolls, ActionNamesRoundTripThroughTraceIo) {
  const ActionName fresh("ROUND_TRIP_ONLY");
  const ActionName spaced("A NAME:WITH\\ESCAPES");
  TimedTrace trace;
  for (const ActionName name :
       {names::kSendMsg, names::kTick, fresh, spaced}) {
    TimedEvent e;
    e.time = static_cast<Time>(trace.size());
    e.action.name = name;
    e.action.node = 1;
    trace.push_back(e);
  }
  std::stringstream text;
  write_trace(text, trace);
  std::stringstream jsonl;
  write_trace_jsonl(jsonl, trace);
  for (const TimedTrace& back : {read_trace(text), read_trace_jsonl(jsonl)}) {
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t k = 0; k < trace.size(); ++k) {
      const ActionName want = trace[k].action.name;
      const ActionName got = back[k].action.name;
      EXPECT_EQ(got, want);
      EXPECT_EQ(got.id(), want.id()) << want;
      EXPECT_EQ(got.view(), want.view());
      EXPECT_EQ(got.msg_class(), want.msg_class()) << want;
      EXPECT_EQ(kind_key(back[k].action), kind_key(trace[k].action)) << want;
    }
  }
}

TEST_P(FuzzSeeds, SlicedRwSatisfiesAxioms) {
  SlicedParams p;
  p.node = 0;
  p.num_nodes = 2;
  p.u = microseconds(40);
  p.d2 = microseconds(100);
  SlicedRw algo(p);
  MachineFuzzer fuzz(algo, GetParam());
  // Feed remote slice updates with legal (future-boundary) tags.
  fuzz.set_input_generator(
      [&p](Time t, Rng& rng) -> std::optional<Action> {
        if (!rng.flip(0.5)) return std::nullopt;
        const Time boundary =
            ((t + p.d2 + p.u) / p.u + 1 + rng.uniform(0, 3)) * p.u;
        Message m = make_message(
            "SUPDATE", {Value{rng.uniform(0, 1 << 20)}, Value{boundary}});
        return make_recv(0, 1, std::move(m));
      });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.actions_executed, 100u);
}

TEST_P(FuzzSeeds, TdmaSatisfiesAxioms) {
  TdmaParams p;
  p.node = 1;
  p.num_nodes = 3;
  p.slot = microseconds(100);
  p.guard = microseconds(10);
  p.max_leases = 1000;
  TdmaMutex mutex(p);
  MachineFuzzer fuzz(mutex, GetParam());
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.actions_executed, 100u);
}

TEST_P(FuzzSeeds, HeartbeatMachinesSatisfyAxioms) {
  HeartbeatSender sender(0, 1, microseconds(100));
  MachineFuzzer sf(sender, GetParam());
  sf.run(2000);

  HeartbeatMonitor monitor(1, 0, microseconds(150));
  MachineFuzzer mf(monitor, GetParam());
  mf.set_input_generator([](Time, Rng& rng) -> std::optional<Action> {
    if (!rng.flip(0.6)) return std::nullopt;
    return make_recv(1, 0, make_message("HEARTBEAT"));
  });
  mf.run(2000);
}

// An MMT node around a scripted clock-time machine that emits OUT every
// 20us of clock and accepts MSG. A TICK only raises mmtclock, so the node
// reports it inert and axiom A7 checks that claim; a MSG first catches the
// script up to mmtclock, which can queue an OUT and change what the node
// offers, so it is not inert.
TEST_P(FuzzSeeds, MmtNodeSatisfiesAxioms) {
  std::vector<ScriptMachine::Step> steps;
  for (int k = 1; k <= 2000; ++k) {
    steps.push_back({k * microseconds(20), make_action("OUT", 0)});
  }
  auto script = std::make_unique<ScriptMachine>("script0", std::move(steps));
  script->accept_kind("MSG", 0);
  MmtNode node(0, std::move(script), microseconds(10), Rng(GetParam()));
  MachineFuzzer fuzz(node, GetParam());
  fuzz.set_input_generator([](Time t, Rng& rng) -> std::optional<Action> {
    if (rng.flip(0.25)) return make_action("MSG", 0);
    // A clock value within 5us of real time; a stale one is ignored.
    const Time c =
        std::max<Time>(0, t + rng.uniform(-microseconds(5), microseconds(5)));
    return make_action("TICK", 0, {Value{c}});
  });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.inert_inputs, 100u);
  EXPECT_LT(report.inert_inputs, report.inputs_injected);
  EXPECT_GT(node.stats().outputs, 10u);
  EXPECT_GT(report.recycled_refills, 10u);
}

TEST_P(FuzzSeeds, ElectionNodeSatisfiesAxioms) {
  ElectionParams p;
  p.node = 1;
  p.num_nodes = 3;
  p.slot = microseconds(100);
  p.d2_design = microseconds(60);
  ElectionNode node(p);
  MachineFuzzer fuzz(node, GetParam());
  // Claims from either neighbour: node 2's may suppress this node's own.
  fuzz.set_input_generator([](Time, Rng& rng) -> std::optional<Action> {
    if (!rng.flip(0.02)) return std::nullopt;
    const int j = rng.flip(0.5) ? 0 : 2;
    return make_recv(1, j, make_message("CLAIM", {Value{std::int64_t{j}}}));
  });
  fuzz.run(2000);
  EXPECT_GE(node.announced(), 1);
}

TEST_P(FuzzSeeds, TobcastNodeSatisfiesAxioms) {
  TobcastParams p;
  p.node = 0;
  p.num_nodes = 2;
  p.d2_prime = microseconds(100);
  p.delta = microseconds(5);
  TobcastNode node(p);
  MachineFuzzer fuzz(node, GetParam());
  std::int64_t seq = 0;
  fuzz.set_input_generator([&seq](Time t, Rng& rng) -> std::optional<Action> {
    if (rng.flip(0.3)) return make_action("TOBCAST", 0, {Value{t}});
    if (!rng.flip(0.5)) return std::nullopt;
    const int j = static_cast<int>(rng.index(2));
    const Time ts = std::max<Time>(0, t - rng.uniform(0, microseconds(100)));
    return make_recv(0, j, make_message("TOMSG", {Value{rng.uniform(0, 99)},
                                                  Value{ts}, Value{seq++}}));
  });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.actions_executed, 100u);
}

TEST_P(FuzzSeeds, TimeSyncMachinesSatisfyAxioms) {
  TimeServer server(0);
  MachineFuzzer sf(server, GetParam());
  std::int64_t probe = 0;
  sf.set_input_generator([&probe](Time, Rng& rng) -> std::optional<Action> {
    if (!rng.flip(0.5)) return std::nullopt;
    const int j = 1 + static_cast<int>(rng.index(2));
    return make_recv(0, j, make_message("SYNCREQ", {Value{probe++}}));
  });
  EXPECT_GT(sf.run(2000).actions_executed, 100u);

  // The server answers the client's outstanding probe, whose id is the
  // number of probes completed so far; a stale id is ignored.
  SyncClient client(1, 0, microseconds(50), 200, microseconds(5));
  MachineFuzzer cf(client, GetParam());
  cf.set_input_generator([&client](Time t, Rng& rng) -> std::optional<Action> {
    if (!rng.flip(0.5)) return std::nullopt;
    const auto id = static_cast<std::int64_t>(client.samples().size()) -
                    (rng.flip(0.2) ? 1 : 0);
    return make_recv(1, 0, make_message("SYNCRESP", {Value{id}, Value{t}}));
  });
  cf.run(3000);
  EXPECT_GT(client.samples().size(), 10u);
}

// The generator plays the client and the broadcast layer: one ENQ or DEQ
// at a time, the server's own TODELIVER once it has broadcast the
// payload, and other nodes' deliveries at any time. It runs at every step
// before the fuzzer executes anything, so it sees each offered TOBCAST and
// response.
TEST_P(FuzzSeeds, QueueServerSatisfiesAxioms) {
  QueueServer server(0, 2);
  MachineFuzzer fuzz(server, GetParam());
  fuzz.set_input_probability(1.0);
  bool outstanding = false;
  std::optional<std::int64_t> payload;  // the outstanding op's broadcast
  bool delivered = false;
  std::size_t completed = 0;
  fuzz.set_input_generator([&](Time t, Rng& rng) -> std::optional<Action> {
    bool responding = false;
    for (const Action& a : server.enabled(t)) {
      if (a.name == "TOBCAST") payload = as_int(a.args.at(0));
      if (a.name == "ENQACK" || a.name == "DEQRET") responding = true;
    }
    if (delivered && !responding) {
      ++completed;
      outstanding = delivered = false;
    }
    if (!rng.flip(0.3)) return std::nullopt;
    if (rng.flip(0.3)) {
      return make_action("TODELIVER", 0,
                         {Value{rng.uniform(0, 99)}, Value{std::int64_t{1}}});
    }
    if (!outstanding) {
      outstanding = true;
      payload.reset();
      return rng.flip(0.5)
                 ? make_action("ENQ", 0, {Value{rng.uniform(0, 99)}})
                 : make_action("DEQ", 0);
    }
    if (!payload || delivered) return std::nullopt;
    delivered = true;
    return make_action("TODELIVER", 0,
                       {Value{*payload}, Value{std::int64_t{0}}});
  });
  fuzz.run(3000);
  EXPECT_GT(completed, 20u);
}

// As for RwClient: the generator answers the outstanding invocation.
TEST_P(FuzzSeeds, QueueClientSatisfiesAxioms) {
  QueueClient::Options o;
  o.num_ops = 400;
  o.think_max = microseconds(20);
  o.seed = GetParam();
  QueueClient client(o);
  MachineFuzzer fuzz(client, GetParam());
  fuzz.set_input_probability(1.0);
  std::string offered;
  fuzz.set_input_generator([&](Time t, Rng& rng) -> std::optional<Action> {
    const bool busy = client.upper_bound(t) == kTimeMax && !client.finished();
    if (!busy) {
      const std::vector<Action> offer = client.enabled(t);
      if (!offer.empty()) offered = offer.front().name;
      return std::nullopt;
    }
    if (!rng.flip(0.5)) return std::nullopt;
    return offered == "DEQ"
               ? make_action("DEQRET", 0, {Value{std::int64_t{-1}}})
               : make_action("ENQACK", 0);
  });
  fuzz.run(4000);
  EXPECT_GT(client.operations().size(), 50u);
}

TEST_P(FuzzSeeds, MultiRwAlgorithmSatisfiesAxioms) {
  MultiRwParams p;
  p.base.node = 0;
  p.base.num_nodes = 2;
  p.base.c = microseconds(10);
  p.base.d2_prime = microseconds(100);
  p.base.two_eps = microseconds(20);
  MultiRwAlgorithm algo(p);
  algo.apply_input(make_action("READ", 0, {Value{std::int64_t{1}}}), 0);
  algo.apply_input(
      make_action("WRITE", 0, {Value{std::int64_t{0}}, Value{7}}), 0);
  MachineFuzzer fuzz(algo, GetParam());
  fuzz.set_input_generator([](Time t, Rng& rng) -> std::optional<Action> {
    if (!rng.flip(0.5)) return std::nullopt;
    Message m = make_message(
        "MUPDATE", {Value{rng.uniform(0, 2)}, Value{rng.uniform(0, 1 << 20)},
                    Value{t + rng.uniform(0, microseconds(200))}});
    return make_recv(0, 1, std::move(m));
  });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.actions_executed, 100u);
}

// As for RwClient; a response names the invocation's object, which the
// generator reads off the offered READ/WRITE.
TEST_P(FuzzSeeds, MultiRwClientSatisfiesAxioms) {
  MultiRwClient::Options o;
  o.num_objects = 3;
  o.num_ops = 400;
  o.think_max = microseconds(20);
  o.seed = GetParam();
  MultiRwClient client(o);
  MachineFuzzer fuzz(client, GetParam());
  fuzz.set_input_probability(1.0);
  Action offered;
  fuzz.set_input_generator([&](Time t, Rng& rng) -> std::optional<Action> {
    const bool busy = client.upper_bound(t) == kTimeMax && !client.finished();
    if (!busy) {
      const std::vector<Action> offer = client.enabled(t);
      if (!offer.empty()) offered = offer.front();
      return std::nullopt;
    }
    if (!rng.flip(0.5)) return std::nullopt;
    const Value obj = offered.args.at(0);
    return offered.name == "READ"
               ? make_action("RETURN", 0, {obj, Value{std::int64_t{3}}})
               : make_action("ACK", 0, {obj});
  });
  fuzz.run(4000);
  EXPECT_GT(client.operations().size(), 50u);
}

TEST_P(FuzzSeeds, TickSourceSatisfiesAxioms) {
  Rng r(GetParam());
  auto traj = std::make_shared<ClockTrajectory>(
      ZigzagDrift(0.3).generate(microseconds(50), seconds(5), r));
  TickSource ticks(0, traj, microseconds(10), Rng(GetParam()));
  MachineFuzzer fuzz(ticks, GetParam());
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.actions_executed, 100u);
  EXPECT_GT(report.recycled_refills, 10u);
}

TEST_P(FuzzSeeds, FloodNodeSatisfiesAxioms) {
  FloodParams p;
  p.source = true;
  p.peers = {1, 2};
  p.hops_bound = 2;
  p.d2_design = microseconds(100);
  p.waves = 50;
  p.wave_gap = microseconds(30);
  FloodNode node(p);
  MachineFuzzer fuzz(node, GetParam());
  fuzz.set_input_generator([](Time, Rng& rng) -> std::optional<Action> {
    if (!rng.flip(0.3)) return std::nullopt;
    const int j = 1 + static_cast<int>(rng.index(2));
    return make_recv(0, j, make_message("FLOOD", {Value{rng.uniform(0, 60)}}));
  });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.actions_executed, 100u);
  EXPECT_GT(report.recycled_refills, 10u);
}

TEST_P(FuzzSeeds, RenamedMachineSatisfiesAxioms) {
  RenamedMachine ren(
      std::make_unique<Channel>(0, 1, microseconds(5), microseconds(50),
                                DelayPolicy::uniform(), Rng(GetParam())),
      {{"SENDMSG", "IN"}, {"RECVMSG", "OUT"}});
  MachineFuzzer fuzz(ren, GetParam());
  fuzz.set_input_generator([](Time, Rng& rng) -> std::optional<Action> {
    if (rng.flip(0.7)) return make_send(0, 1, make_message("M"), "IN");
    return std::nullopt;
  });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.actions_executed, 100u);
}

// The Simulation 1 node of algorithm S at node 0 of two: the algorithm, a
// send buffer per out-peer and a receive buffer per in-peer, with
// SENDMSG/RECVMSG hidden. One READ and one WRITE start it off; the
// generator feeds physical ERECVMSGs of UPDATEs whose clock tags straddle
// the receiving clock, so some are held.
std::unique_ptr<CompositeMachine> sim1_rw_node() {
  RwParams p;
  p.node = 0;
  p.num_nodes = 2;
  p.c = microseconds(10);
  p.d2_prime = microseconds(100);
  p.two_eps = microseconds(20);
  auto node = make_node_composite(std::make_unique<RwAlgorithm>(p), 0,
                                  {0, 1}, {0, 1});
  node->apply_input(make_action("READ", 0), 0);
  node->apply_input(make_action("WRITE", 0, {Value{7}}), 0);
  return node;
}

std::optional<Action> sim1_update(Time clock, Rng& rng) {
  Message m = make_message(
      "UPDATE", {Value{rng.uniform(0, 1 << 20)},
                 Value{clock + rng.uniform(0, microseconds(200))}});
  m.clock_tag = std::max<Time>(
      0, clock + rng.uniform(-microseconds(50), microseconds(50)));
  return make_recv(0, static_cast<int>(rng.index(2)), std::move(m),
                   "ERECVMSG");
}

TEST_P(FuzzSeeds, Sim1NodeCompositeSatisfiesAxioms) {
  auto node = sim1_rw_node();
  ASSERT_GT(node->part_count(), 1u);
  MachineFuzzer fuzz(*node, GetParam());
  fuzz.set_input_generator([](Time t, Rng& rng) -> std::optional<Action> {
    if (!rng.flip(0.5)) return std::nullopt;
    return sim1_update(t, rng);
  });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.actions_executed, 100u);
}

TEST_P(FuzzSeeds, ClockedSim1NodeSatisfiesAxioms) {
  Rng r(GetParam());
  auto traj = std::make_shared<const ClockTrajectory>(
      ZigzagDrift(0.3).generate(microseconds(10), seconds(5), r));
  ClockedMachine node(sim1_rw_node(), traj);
  MachineFuzzer fuzz(node, GetParam());
  fuzz.set_input_generator([&traj](Time t, Rng& rng) -> std::optional<Action> {
    if (!rng.flip(0.5)) return std::nullopt;
    return sim1_update(traj->clock_at(t), rng);
  });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.actions_executed, 100u);
}

// MmtNode's catch-up drains the multi-part node part by part; A7 checks
// its inert TICKs and A8 its recycled polls.
TEST_P(FuzzSeeds, MmtNodeOverSim1NodeSatisfiesAxioms) {
  MmtNode node(0, sim1_rw_node(), microseconds(10), Rng(GetParam()));
  ASSERT_GT(node.inner().part_count(), 1u);
  MachineFuzzer fuzz(node, GetParam());
  fuzz.set_input_generator([](Time t, Rng& rng) -> std::optional<Action> {
    if (rng.flip(0.25)) return sim1_update(t, rng);
    const Time c =
        std::max<Time>(0, t + rng.uniform(-microseconds(5), microseconds(5)));
    return make_action("TICK", 0, {Value{c}});
  });
  const auto report = fuzz.run(3000);
  EXPECT_GT(report.inert_inputs, 100u);
  // The write's two ESENDMSGs and ACK, and the read's RETURN.
  EXPECT_GE(node.stats().outputs, 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1, 2, 3, 17, 99, 2024));

// --- renaming operator ---------------------------------------------------------

TEST(RenamedTest, TranslatesBothDirections) {
  // Rename the channel interface: SENDMSG->IN, RECVMSG->OUT.
  auto ch = std::make_unique<Channel>(0, 1, 0, microseconds(10),
                                      DelayPolicy::always_min(), Rng(1));
  RenamedMachine ren(std::move(ch), {{"SENDMSG", "IN"}, {"RECVMSG", "OUT"}});
  Message m = make_message("M");
  m.uid = 1;  // sent, so named
  EXPECT_EQ(ren.classify(make_send(0, 1, m, "IN")), ActionRole::kInput);
  EXPECT_EQ(ren.classify(make_recv(1, 0, m, "OUT")), ActionRole::kOutput);
  // The raw inner names are no longer part of the signature.
  EXPECT_EQ(ren.classify(make_send(0, 1, m, "SENDMSG")),
            ActionRole::kNotMine);
  ren.apply_input(make_send(0, 1, m, "IN"), 0);
  const auto acts = ren.enabled(microseconds(5));
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].name, "OUT");
}

TEST(RenamedTest, NonInjectiveMapRejected) {
  auto ch = std::make_unique<Channel>(0, 1, 0, 10, DelayPolicy::uniform(),
                                      Rng(1));
  EXPECT_THROW(RenamedMachine(std::move(ch),
                              {{"SENDMSG", "X"}, {"RECVMSG", "X"}}),
               CheckError);
}

TEST(RenamedTest, AliasingMapRejected) {
  // SENDMSG is renamed onto RECVMSG, which the channel also declares under
  // its own name: two inner names would meet at one outer name.
  auto ch = std::make_unique<Channel>(0, 1, 0, 10, DelayPolicy::uniform(),
                                      Rng(1));
  EXPECT_THROW(RenamedMachine(std::move(ch), {{"SENDMSG", "RECVMSG"}}),
               CheckError);
  // A swap aliases nothing: each outer name has one inner name.
  auto swapped = std::make_unique<Channel>(0, 1, 0, 10,
                                           DelayPolicy::uniform(), Rng(1));
  RenamedMachine ren(std::move(swapped),
                     {{"SENDMSG", "RECVMSG"}, {"RECVMSG", "SENDMSG"}});
  const Message m = make_message("M");
  EXPECT_EQ(ren.classify(make_send(0, 1, m, "RECVMSG")), ActionRole::kInput);
  EXPECT_EQ(ren.classify(make_recv(1, 0, m, "SENDMSG")), ActionRole::kOutput);
}

TEST(RenamedTest, PassThroughForUnmappedNames) {
  auto ch = std::make_unique<Channel>(0, 1, 0, 10, DelayPolicy::uniform(),
                                      Rng(1));
  RenamedMachine ren(std::move(ch), {{"RECVMSG", "OUT"}});
  const Message m = make_message("M");
  EXPECT_EQ(ren.classify(make_send(0, 1, m)), ActionRole::kInput);
}

}  // namespace
}  // namespace psc
