// Tests for the edge automaton E_{ij,[d1,d2]} (Figure 1): delivery windows,
// urgency, reordering, loss/duplication freedom, and delay policies.
#include <gtest/gtest.h>

#include "channel/channel.hpp"
#include "runtime/executor.hpp"
#include "runtime/script.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

Action send(int i, int j, const Message& m) { return make_send(i, j, m); }

// A message named as an executor would have named it before the channel
// sees it (Channel::apply_input rejects uid 0).
Message named(std::uint64_t uid) {
  Message m = make_message("M");
  m.uid = uid;
  return m;
}

// Runs one channel fed by a script of sends; returns delivered RECVMSG
// events (from the executor trace).
TimedTrace run_channel(std::unique_ptr<DelayPolicy> policy,
                       const std::vector<std::pair<Time, Message>>& sends,
                       Duration d1, Duration d2, std::uint64_t seed = 1) {
  Executor exec({.horizon = seconds(10), .seed = seed});
  std::vector<ScriptMachine::Step> steps;
  for (const auto& [t, m] : sends) steps.push_back({t, send(0, 1, m)});
  exec.add_owned(
      std::make_unique<ScriptMachine>("env", std::move(steps)));
  exec.add_owned(std::make_unique<Channel>(0, 1, d1, d2, std::move(policy),
                                           Rng(seed)));
  exec.run();
  return project_name(exec.events(), "RECVMSG");
}

class ChannelDelayTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelDelayTest, DeliveryWithinWindowNoLossNoDup) {
  const Duration d1 = microseconds(10), d2 = microseconds(50);
  std::vector<std::pair<Time, Message>> sends;
  // Explicit uids: the script's sends keep them, so the deliveries can be
  // matched to their sends by uid.
  for (int k = 0; k < 50; ++k) {
    sends.emplace_back(k * microseconds(3),
                       named(static_cast<std::uint64_t>(k) + 1));
  }
  const auto recvs =
      run_channel(DelayPolicy::uniform(), sends, d1, d2, GetParam());
  ASSERT_EQ(recvs.size(), sends.size());  // no loss, no duplication
  // Each message delivered exactly once, within its window.
  for (const auto& [t, m] : sends) {
    int count = 0;
    for (const auto& e : recvs) {
      if (e.action.msg->uid == m.uid) {
        ++count;
        EXPECT_GE(e.time, t + d1);
        EXPECT_LE(e.time, t + d2);
      }
    }
    EXPECT_EQ(count, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelDelayTest,
                         ::testing::Values(1, 7, 42, 1234, 99999));

TEST(ChannelTest, MinPolicyDeliversAtExactlyD1) {
  const Duration d1 = microseconds(5), d2 = microseconds(50);
  const Message m = make_message("M");
  const auto recvs = run_channel(DelayPolicy::always_min(),
                                 {{microseconds(1), m}}, d1, d2);
  ASSERT_EQ(recvs.size(), 1u);
  EXPECT_EQ(recvs[0].time, microseconds(1) + d1);
}

TEST(ChannelTest, MaxPolicyDeliversAtExactlyD2) {
  const Duration d1 = microseconds(5), d2 = microseconds(50);
  const Message m = make_message("M");
  const auto recvs = run_channel(DelayPolicy::always_max(),
                                 {{microseconds(1), m}}, d1, d2);
  ASSERT_EQ(recvs.size(), 1u);
  EXPECT_EQ(recvs[0].time, microseconds(1) + d2);
}

TEST(ChannelTest, ZeroWidthWindowIsDeterministic) {
  const Duration d = microseconds(7);
  const Message m = make_message("M");
  const auto recvs =
      run_channel(DelayPolicy::uniform(), {{0, m}}, d, d);
  ASSERT_EQ(recvs.size(), 1u);
  EXPECT_EQ(recvs[0].time, d);
}

TEST(ChannelTest, BimodalPolicyReorders) {
  // Send a burst faster than d2-d1: fast/slow delays must invert order.
  const Duration d1 = microseconds(1), d2 = microseconds(100);
  Executor exec({.horizon = seconds(1), .seed = 5});
  std::vector<ScriptMachine::Step> steps;
  for (int k = 0; k < 100; ++k) {
    steps.push_back({k * microseconds(2), send(0, 1, make_message("M"))});
  }
  exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(steps)));
  auto ch = std::make_unique<Channel>(0, 1, d1, d2,
                                      DelayPolicy::bimodal(0.5), Rng(5));
  Channel* chp = ch.get();
  exec.add_owned(std::move(ch));
  exec.run();
  EXPECT_EQ(chp->stats().delivered, 100u);
  EXPECT_GT(chp->stats().reordered, 0u);
}

TEST(ChannelTest, FifoWhenWindowNarrowerThanSpacing) {
  // With spacing > d2-d1 reordering is impossible.
  const Duration d1 = microseconds(1), d2 = microseconds(3);
  Executor exec({.horizon = seconds(1), .seed = 5});
  std::vector<ScriptMachine::Step> steps;
  for (int k = 0; k < 50; ++k) {
    steps.push_back({k * microseconds(5), send(0, 1, make_message("M"))});
  }
  exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(steps)));
  auto ch = std::make_unique<Channel>(0, 1, d1, d2, DelayPolicy::uniform(),
                                      Rng(5));
  Channel* chp = ch.get();
  exec.add_owned(std::move(ch));
  exec.run();
  EXPECT_EQ(chp->stats().delivered, 50u);
  EXPECT_EQ(chp->stats().reordered, 0u);
}

TEST(ChannelTest, ClassifyMatchesOnlyItsEdge) {
  Channel ch(2, 3, 0, 10, DelayPolicy::uniform(), Rng(1));
  const Message m = make_message("M");
  EXPECT_EQ(ch.classify(make_send(2, 3, m)), ActionRole::kInput);
  EXPECT_EQ(ch.classify(make_recv(3, 2, m)), ActionRole::kOutput);
  EXPECT_EQ(ch.classify(make_send(3, 2, m)), ActionRole::kNotMine);
  EXPECT_EQ(ch.classify(make_recv(2, 3, m)), ActionRole::kNotMine);
  EXPECT_EQ(ch.classify(make_action("READ", 2)), ActionRole::kNotMine);
}

TEST(ChannelTest, RenamedInterfaceForClockModel) {
  Channel ch(0, 1, 0, 10, DelayPolicy::uniform(), Rng(1), "ESENDMSG",
             "ERECVMSG");
  const Message m = make_message("M");
  EXPECT_EQ(ch.classify(make_send(0, 1, m, "ESENDMSG")), ActionRole::kInput);
  EXPECT_EQ(ch.classify(make_recv(1, 0, m, "ERECVMSG")), ActionRole::kOutput);
  EXPECT_EQ(ch.classify(make_send(0, 1, m)), ActionRole::kNotMine);
}

TEST(ChannelTest, BadBoundsRejected) {
  EXPECT_THROW(Channel(0, 1, 10, 5, DelayPolicy::uniform(), Rng(1)),
               CheckError);
  EXPECT_THROW(Channel(0, 1, -1, 5, DelayPolicy::uniform(), Rng(1)),
               CheckError);
}

TEST(ChannelTest, FixedPolicyOutsideBoundsRejected) {
  Channel ch(0, 1, 10, 20, DelayPolicy::fixed(25), Rng(1));
  EXPECT_THROW(ch.apply_input(send(0, 1, named(1)), 0), CheckError);
}

// Every send reaches a channel through the event that names its message; an
// unnamed one bypassed naming and could not be told from another send.
TEST(ChannelTest, UnnamedMessageRejected) {
  Channel ch(0, 1, 5, 9, DelayPolicy::always_max(), Rng(1));
  EXPECT_THROW(ch.apply_input(send(0, 1, make_message("M")), 0), CheckError);
  EXPECT_EQ(ch.stats().sent, 0u);
  ch.apply_input(send(0, 1, named(1)), 0);
  EXPECT_EQ(ch.stats().sent, 1u);
}

TEST(ChannelTest, UpperBoundStopsTimeAtDeadline) {
  Channel ch(0, 1, 5, 9, DelayPolicy::always_max(), Rng(1));
  EXPECT_EQ(ch.upper_bound(0), kTimeMax);
  ch.apply_input(send(0, 1, named(1)), 100);
  EXPECT_EQ(ch.upper_bound(100), 109);
  EXPECT_EQ(ch.next_enabled(100), 109);
}

}  // namespace
}  // namespace psc
