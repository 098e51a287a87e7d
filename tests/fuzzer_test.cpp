// Axiom property tests: the MachineFuzzer drives every machine class in
// the library through randomized schedules and checks the executable
// automaton axioms (see runtime/fuzzer.hpp). Also tests the renaming
// operator.
#include <gtest/gtest.h>

#include <set>

#include "algos/heartbeat.hpp"
#include "algos/tdma.hpp"
#include "channel/channel.hpp"
#include "mmt/mmt_node.hpp"
#include "runtime/fuzzer.hpp"
#include "runtime/renamed.hpp"
#include "runtime/script.hpp"
#include "util/check.hpp"
#include "rw/algorithm.hpp"
#include "rw/multi.hpp"
#include "rw/sliced.hpp"
#include "transform/buffers.hpp"

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
}

TEST_P(FuzzSeeds, SendBufferSatisfiesAxioms) {
  SendBuffer sb(0, 1);
  MachineFuzzer fuzz(sb, GetParam());
  fuzz.set_input_generator([](Time, Rng& rng) -> std::optional<Action> {
    if (rng.flip(0.5)) return make_send(0, 1, make_message("M"));
    return std::nullopt;
  });
  fuzz.run(2000);
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
}

TEST_P(FuzzSeeds, RwAlgorithmSatisfiesAxioms) {
  RwParams p;
  p.node = 0;
  p.num_nodes = 2;
  p.c = microseconds(10);
  p.d2_prime = microseconds(100);
  p.two_eps = microseconds(20);
  RwAlgorithm algo(p);
  // Kick one read off directly (the client protocol is exercised at length
  // by the rw tests; the fuzzer's job is the axioms under message chaos).
  algo.apply_input(make_action("READ", 0), 0);
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
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(1, 2, 3, 17, 99, 2024));

// --- renaming operator ---------------------------------------------------------

TEST(RenamedTest, TranslatesBothDirections) {
  // Rename the channel interface: SENDMSG->IN, RECVMSG->OUT.
  auto ch = std::make_unique<Channel>(0, 1, 0, microseconds(10),
                                      DelayPolicy::always_min(), Rng(1));
  RenamedMachine ren(std::move(ch), {{"SENDMSG", "IN"}, {"RECVMSG", "OUT"}});
  const Message m = make_message("M");
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
