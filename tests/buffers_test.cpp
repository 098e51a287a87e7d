// Tests for the Simulation-1 buffers (Figure 2): tagging, holding,
// tag-order delivery, urgency, and the end-to-end clock-node assembly.
#include <gtest/gtest.h>

#include <map>

#include "runtime/executor.hpp"
#include "runtime/script.hpp"
#include "transform/buffers.hpp"
#include "transform/clock_system.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

Message msg(const char* kind = "M") { return make_message(kind); }

// --- SendBuffer --------------------------------------------------------------

TEST(SendBufferTest, TagsWithSendClockAndForwardsImmediately) {
  SendBuffer sb(0, 1);
  const Message m = msg();
  sb.apply_input(make_send(0, 1, m), /*clock=*/123);
  const auto acts = sb.enabled(123);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].name, "ESENDMSG");
  EXPECT_EQ(acts[0].msg->clock_tag, 123);
  EXPECT_EQ(acts[0].msg->uid, m.uid);
  // Urgency: clock may not advance past the queued tag.
  EXPECT_EQ(sb.upper_bound(123), 123);
  sb.apply_local(acts[0], 123);
  EXPECT_EQ(sb.queued(), 0u);
  EXPECT_EQ(sb.upper_bound(123), kTimeMax);
}

TEST(SendBufferTest, FifoOrderPreserved) {
  SendBuffer sb(0, 1);
  const Message m1 = msg(), m2 = msg();
  sb.apply_input(make_send(0, 1, m1), 10);
  sb.apply_input(make_send(0, 1, m2), 10);
  auto acts = sb.enabled(10);
  ASSERT_EQ(acts.size(), 1u);  // only the front is offered
  EXPECT_EQ(acts[0].msg->uid, m1.uid);
  sb.apply_local(acts[0], 10);
  acts = sb.enabled(10);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].msg->uid, m2.uid);
}

TEST(SendBufferTest, StaleForwardRejected) {
  SendBuffer sb(0, 1);
  sb.apply_input(make_send(0, 1, msg()), 10);
  auto acts = sb.enabled(10);
  ASSERT_EQ(acts.size(), 1u);
  // Forwarding after the clock moved violates the c = clock precondition.
  EXPECT_THROW(sb.apply_local(acts[0], 11), CheckError);
}

TEST(SendBufferTest, ClassifiesOnlyItsEdge) {
  SendBuffer sb(0, 1);
  EXPECT_EQ(sb.classify(make_send(0, 1, msg())), ActionRole::kInput);
  EXPECT_EQ(sb.classify(make_send(0, 1, msg(), "ESENDMSG")),
            ActionRole::kOutput);
  EXPECT_EQ(sb.classify(make_send(0, 2, msg())), ActionRole::kNotMine);
  EXPECT_EQ(sb.classify(make_send(1, 0, msg())), ActionRole::kNotMine);
}

// --- ReceiveBuffer -----------------------------------------------------------

Message tagged(Time c, const char* kind = "M") {
  Message m = make_message(kind);
  m.clock_tag = c;
  return m;
}

TEST(ReceiveBufferTest, PromptDeliveryWhenClockAlreadyPastTag) {
  ReceiveBuffer rb(1, 0);  // messages from node 1 arriving at node 0
  const Message m = tagged(50);
  rb.apply_input(make_recv(0, 1, m, "ERECVMSG"), /*clock=*/80);
  const auto acts = rb.enabled(80);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].name, "RECVMSG");
  EXPECT_EQ(acts[0].msg->uid, m.uid);
  EXPECT_EQ(acts[0].msg->clock_tag, kNoClockTag);  // tag stripped
  // Time may not pass while a deliverable message waits.
  EXPECT_EQ(rb.upper_bound(80), 80);
  EXPECT_EQ(rb.stats().buffered, 0u);
}

TEST(ReceiveBufferTest, HoldsUntilClockReachesTag) {
  ReceiveBuffer rb(1, 0);
  const Message m = tagged(100);
  rb.apply_input(make_recv(0, 1, m, "ERECVMSG"), /*clock=*/80);
  EXPECT_TRUE(rb.enabled(80).empty());     // not deliverable yet
  EXPECT_EQ(rb.upper_bound(80), 100);      // clock may advance to the tag
  EXPECT_EQ(rb.next_enabled(80), 100);
  const auto acts = rb.enabled(100);
  ASSERT_EQ(acts.size(), 1u);
  rb.apply_local(acts[0], 100);
  EXPECT_EQ(rb.stats().buffered, 1u);
  EXPECT_EQ(rb.stats().max_hold, 20);
}

TEST(ReceiveBufferTest, DeliversInTagOrderDespiteArrivalOrder) {
  // A reordering channel can make a later-tagged message arrive first.
  ReceiveBuffer rb(1, 0);
  const Message late = tagged(200), early = tagged(120);
  rb.apply_input(make_recv(0, 1, late, "ERECVMSG"), 80);
  rb.apply_input(make_recv(0, 1, early, "ERECVMSG"), 90);
  auto acts = rb.enabled(150);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].msg->uid, early.uid);  // smaller tag first
  rb.apply_local(acts[0], 150);
  EXPECT_TRUE(rb.enabled(150).empty());
  EXPECT_EQ(rb.next_enabled(150), 200);
}

TEST(ReceiveBufferTest, UntaggedMessageRejected) {
  ReceiveBuffer rb(1, 0);
  EXPECT_THROW(rb.apply_input(make_recv(0, 1, msg(), "ERECVMSG"), 10),
               CheckError);
}

TEST(ReceiveBufferTest, PrematureDeliveryRejected) {
  ReceiveBuffer rb(1, 0);
  rb.apply_input(make_recv(0, 1, tagged(100), "ERECVMSG"), 80);
  auto acts = rb.enabled(100);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_THROW(rb.apply_local(acts[0], 99), CheckError);
}

// --- end-to-end: Lamport's condition across a clock-model system ------------

// Echo algorithm (timed model): upon RECVMSG, immediately SENDMSG back.
// Used here purely to generate message traffic through the buffers.
class Echo final : public Machine {
 public:
  Echo(int node, int peer, bool initiator)
      : Machine("echo_" + std::to_string(node)),
        node_(node),
        peer_(peer),
        pending_(initiator ? 1 : 0) {}

  void declare_signature(SignatureDecl& decl) const override {
    decl.input("RECVMSG", node_);
    decl.output("SENDMSG", node_);
  }
  void apply_input(const Action&, Time) override { ++pending_; }
  std::vector<Action> enabled(Time) const override {
    if (pending_ > 0 && sent_ < 40) {
      return {make_send(node_, peer_, make_message("ECHO"))};
    }
    return {};
  }
  void apply_local(const Action&, Time) override {
    --pending_;
    ++sent_;
  }
  Time upper_bound(Time t) const override {
    return (pending_ > 0 && sent_ < 40) ? t : kTimeMax;
  }

 private:
  int node_, peer_;
  int pending_ = 0;
  int sent_ = 0;
};

class ClockNodeEndToEnd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClockNodeEndToEnd, NoMessageArrivesBeforeItsSendClock) {
  // Two nodes with maximally skewed clocks (+eps and -eps) exchanging
  // echoes over a channel whose delay can be smaller than the skew: without
  // the receive buffer, messages would arrive "before" they were sent in
  // clock time. Verify Lamport's condition on the delivered trace.
  const Duration eps = microseconds(50);
  const Graph g = Graph::complete(2);
  Executor exec({.horizon = milliseconds(20), .seed = GetParam()});
  Rng rng(GetParam());
  std::vector<std::shared_ptr<const ClockTrajectory>> trajs;
  trajs.push_back(std::make_shared<ClockTrajectory>(
      OffsetDrift(+1.0).generate(eps, seconds(1), rng)));
  trajs.push_back(std::make_shared<ClockTrajectory>(
      OffsetDrift(-1.0).generate(eps, seconds(1), rng)));
  std::vector<std::unique_ptr<Machine>> algos;
  algos.push_back(std::make_unique<Echo>(0, 1, true));
  algos.push_back(std::make_unique<Echo>(1, 0, false));
  ChannelConfig cc;
  cc.d1 = microseconds(1);  // << 2*eps: buffering is required
  cc.d2 = microseconds(10);
  cc.seed = GetParam();
  const auto handles =
      add_clock_system(exec, g, cc, std::move(algos), trajs);
  exec.run();

  // Every RECVMSG (hidden inside the node composite => look at all events)
  // must happen at a receiver clock >= the sender's clock at SENDMSG.
  std::size_t checked = 0;
  std::map<std::uint64_t, Time> send_clock;
  for (const auto& e : exec.events()) {
    if (e.action.name == "SENDMSG") {
      send_clock[e.action.msg->uid] = e.clock;
    } else if (e.action.name == "RECVMSG") {
      auto it = send_clock.find(e.action.msg->uid);
      ASSERT_NE(it, send_clock.end());
      EXPECT_GE(e.clock, it->second) << "Lamport condition violated";
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);  // the echo actually ran
  // And the receive buffers really did buffer something (d1 < 2eps with
  // opposite extreme skews forces holds on at least one direction).
  std::size_t buffered = 0;
  for (auto* node : handles.nodes) {
    auto& comp = dynamic_cast<CompositeMachine&>(node->inner());
    for (std::size_t k = 0; k < comp.size(); ++k) {
      if (auto* rb = dynamic_cast<ReceiveBuffer*>(&comp.member(k))) {
        buffered += rb->stats().buffered;
      }
    }
  }
  EXPECT_GT(buffered, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClockNodeEndToEnd,
                         ::testing::Values(1, 2, 3, 11, 29));

// --- ablation: what the buffers prevent -------------------------------------
//
// TagEcho embeds the sender's current time parameter (= its clock) in each
// message and counts a violation whenever a message's embedded send clock
// exceeds the receiver's clock at delivery — i.e., the message arrived "in
// the clock past" (Lamport's condition broken). Through the Simulation-1
// node assembly this can never happen; with bare clocked nodes and fast
// channels it must.
class TagEcho final : public Machine {
 public:
  TagEcho(int node, int peer, bool initiator, int max_sends)
      : Machine("tagecho_" + std::to_string(node)),
        node_(node),
        peer_(peer),
        pending_(initiator ? 1 : 0),
        max_sends_(max_sends) {}

  int violations() const { return violations_; }
  int received() const { return received_; }

  void declare_signature(SignatureDecl& decl) const override {
    decl.input("RECVMSG", node_);
    decl.output("SENDMSG", node_);
  }
  void apply_input(const Action& a, Time clock) override {
    ++received_;
    const Time sent_at = as_int(a.msg->fields.at(0));
    if (sent_at > clock) ++violations_;
    ++pending_;
  }
  std::vector<Action> enabled(Time clock) const override {
    if (pending_ > 0 && sent_ < max_sends_) {
      return {make_send(node_, peer_, make_message("TAG", {Value{clock}}))};
    }
    return {};
  }
  void apply_local(const Action&, Time) override {
    --pending_;
    ++sent_;
  }
  Time upper_bound(Time t) const override {
    return (pending_ > 0 && sent_ < max_sends_) ? t : kTimeMax;
  }

 private:
  int node_, peer_;
  int pending_ = 0;
  int sent_ = 0;
  int max_sends_;
  int violations_ = 0;
  int received_ = 0;
};

struct AblationOutcome {
  int violations = 0;
  int received = 0;
};

AblationOutcome run_tag_echo(bool with_buffers, std::uint64_t seed) {
  const Duration eps = microseconds(50);
  Executor exec({.horizon = milliseconds(20), .seed = seed});
  Rng rng(seed);
  std::vector<std::shared_ptr<const ClockTrajectory>> trajs;
  trajs.push_back(std::make_shared<ClockTrajectory>(
      OffsetDrift(+1.0).generate(eps, seconds(1), rng)));
  trajs.push_back(std::make_shared<ClockTrajectory>(
      OffsetDrift(-1.0).generate(eps, seconds(1), rng)));
  auto e0 = std::make_unique<TagEcho>(0, 1, true, 40);
  auto e1 = std::make_unique<TagEcho>(1, 0, false, 40);
  TagEcho* p0 = e0.get();
  TagEcho* p1 = e1.get();
  const Duration d1 = 0, d2 = microseconds(10);  // d2 << 2 eps
  if (with_buffers) {
    const Graph g = Graph::complete(2);
    std::vector<std::unique_ptr<Machine>> algos;
    algos.push_back(std::move(e0));
    algos.push_back(std::move(e1));
    ChannelConfig cc;
    cc.d1 = d1;
    cc.d2 = d2;
    cc.seed = seed;
    add_clock_system(exec, g, cc, std::move(algos), trajs);
  } else {
    exec.add_owned(std::make_unique<ClockedMachine>(std::move(e0), trajs[0]));
    exec.add_owned(std::make_unique<ClockedMachine>(std::move(e1), trajs[1]));
    Rng seeder(seed);
    exec.add_owned(std::make_unique<Channel>(0, 1, d1, d2,
                                             DelayPolicy::uniform(),
                                             seeder.split()));
    exec.add_owned(std::make_unique<Channel>(1, 0, d1, d2,
                                             DelayPolicy::uniform(),
                                             seeder.split()));
    exec.hide("SENDMSG");
    exec.hide("RECVMSG");
  }
  exec.run();
  AblationOutcome out;
  out.violations = p0->violations() + p1->violations();
  out.received = p0->received() + p1->received();
  return out;
}

class BufferAblation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferAblation, BareClockedNodesReceiveInTheClockPast) {
  const auto out = run_tag_echo(/*with_buffers=*/false, GetParam());
  ASSERT_GT(out.received, 10);
  // The +eps node's sends carry clocks ~2eps ahead of the -eps node; with
  // d2 << 2eps every such message arrives in the receiver's clock past.
  EXPECT_GT(out.violations, 0);
}

TEST_P(BufferAblation, SimulationOneBuffersRestoreLamportCondition) {
  const auto out = run_tag_echo(/*with_buffers=*/true, GetParam());
  ASSERT_GT(out.received, 10);
  EXPECT_EQ(out.violations, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferAblation,
                         ::testing::Values(1, 2, 3, 11, 29));

}  // namespace
}  // namespace psc
