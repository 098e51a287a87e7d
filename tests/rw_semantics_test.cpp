// Directed tests of Figure 3's fine-grained semantics using scripted
// environments (exact invocation times) instead of closed-loop clients:
// the same-time-update tie-break, update ordering, and the RETURN/UPDATE
// same-instant precondition.
#include <gtest/gtest.h>

#include "runtime/script.hpp"
#include "rw/algorithm.hpp"
#include "runtime/system.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

struct ScriptedRun {
  TimedTrace returns;  // RETURN events
  TimedTrace acks;
};

// Runs n Figure-3 nodes with fixed-delay channels and a scripted
// environment; returns the responses.
ScriptedRun run_scripted(int n, Duration d2, Duration c,
                         std::vector<ScriptMachine::Step> steps,
                         std::uint64_t seed = 1) {
  Executor exec({.horizon = seconds(1), .seed = seed});
  RwParams p;
  p.c = c;
  p.delta = 1;
  p.d2_prime = d2;
  p.two_eps = 0;  // algorithm L timing; tie-break logic is shared
  ChannelConfig cc;
  cc.d1 = d2 / 2;
  cc.d2 = d2;
  cc.policy = [d2] { return DelayPolicy::fixed(d2 / 2); };
  cc.seed = seed;
  add_timed_system(exec, Graph::complete_with_self_loops(n), cc,
                   make_rw_algorithms(n, p));
  auto env = std::make_unique<ScriptMachine>("env", std::move(steps));
  env->accept_kind("RETURN");
  env->accept_kind("ACK");
  exec.add_owned(std::move(env));
  exec.run();
  ScriptedRun out;
  out.returns = project_name(exec.events(), "RETURN");
  out.acks = project_name(exec.events(), "ACK");
  return out;
}

TEST(Figure3Semantics, SameTimeWritesKeepLargestSenderEverywhere) {
  // Nodes 0 and 1 write at exactly the same instant; Figure 3's RECVMSG
  // effect keeps the record with the larger sender index at equal update
  // times, so every node converges to node 1's value.
  const Duration d2 = microseconds(100);
  std::vector<ScriptMachine::Step> steps{
      {1000, make_action("WRITE", 0, {Value{std::int64_t{111}}})},
      {1000, make_action("WRITE", 1, {Value{std::int64_t{222}}})},
      // Read at every node well after both updates applied.
      {milliseconds(1), make_action("READ", 0)},
      {milliseconds(1), make_action("READ", 1)},
      {milliseconds(1), make_action("READ", 2)},
  };
  const auto run = run_scripted(3, d2, /*c=*/0, std::move(steps));
  ASSERT_EQ(run.returns.size(), 3u);
  for (const auto& e : run.returns) {
    EXPECT_EQ(as_int(e.action.args.at(0)), 222)
        << "node " << e.action.node << " kept the smaller sender's write";
  }
  EXPECT_EQ(run.acks.size(), 2u);
}

TEST(Figure3Semantics, LaterWriteWinsRegardlessOfSenderId) {
  // Node 1 writes first, node 0 writes later: update times differ, so the
  // tie-break is irrelevant and the later write (smaller id!) wins.
  const Duration d2 = microseconds(100);
  std::vector<ScriptMachine::Step> steps{
      {1000, make_action("WRITE", 1, {Value{std::int64_t{222}}})},
      {5000, make_action("WRITE", 0, {Value{std::int64_t{111}}})},
      {milliseconds(1), make_action("READ", 2)},
  };
  const auto run = run_scripted(3, d2, 0, std::move(steps));
  ASSERT_EQ(run.returns.size(), 1u);
  EXPECT_EQ(as_int(run.returns[0].action.args.at(0)), 111);
}

TEST(Figure3Semantics, ReadScheduledExactlyAtUpdateSeesTheUpdate) {
  // The "∄ r.update-time = now" precondition: a RETURN due at the very
  // instant an update applies must fire after it. Write at t=0 from node 1
  // updates at t = d2' + delta = 100001; a read at node 0 invoked at
  // 100001 - c - delta with c+delta wait returns exactly at 100001.
  const Duration d2 = microseconds(100);
  const Duration c = microseconds(10);
  const Time update_at = d2 + 1;  // write at t=0
  std::vector<ScriptMachine::Step> steps{
      {0, make_action("WRITE", 1, {Value{std::int64_t{77}}})},
      {update_at - c - 1, make_action("READ", 0)},
  };
  const auto run = run_scripted(2, d2, c, std::move(steps));
  ASSERT_EQ(run.returns.size(), 1u);
  EXPECT_EQ(run.returns[0].time, update_at);
  EXPECT_EQ(as_int(run.returns[0].action.args.at(0)), 77)
      << "read at the update instant must see the fresh value";
}

TEST(Figure3Semantics, ReadJustBeforeUpdateSeesOldValue) {
  const Duration d2 = microseconds(100);
  const Duration c = microseconds(10);
  const Time update_at = d2 + 1;
  std::vector<ScriptMachine::Step> steps{
      {0, make_action("WRITE", 1, {Value{std::int64_t{77}}})},
      {update_at - c - 2, make_action("READ", 0)},  // returns 1ns earlier
  };
  const auto run = run_scripted(2, d2, c, std::move(steps));
  ASSERT_EQ(run.returns.size(), 1u);
  EXPECT_EQ(run.returns[0].time, update_at - 1);
  EXPECT_EQ(as_int(run.returns[0].action.args.at(0)), 0);
}

TEST(Figure3Semantics, WriterUpdatesItsOwnCopyViaSelfLoop) {
  // The paper has the writer send UPDATE to itself too; its local copy
  // changes at t + d2' + delta like everyone else's.
  const Duration d2 = microseconds(100);
  std::vector<ScriptMachine::Step> steps{
      {0, make_action("WRITE", 0, {Value{std::int64_t{42}}})},
      {milliseconds(1), make_action("READ", 0)},
  };
  const auto run = run_scripted(1, d2, 0, std::move(steps));
  ASSERT_EQ(run.returns.size(), 1u);
  EXPECT_EQ(as_int(run.returns[0].action.args.at(0)), 42);
}

TEST(Figure3Semantics, ParameterValidation) {
  RwParams p;
  p.d2_prime = 100;
  p.delta = 0;  // below one quantum
  EXPECT_THROW(RwAlgorithm{p}, CheckError);
  p.delta = 1;
  p.c = -1;
  EXPECT_THROW(RwAlgorithm{p}, CheckError);
  p.c = 90;
  p.two_eps = 20;  // c + 2eps > d2'
  EXPECT_THROW(RwAlgorithm{p}, CheckError);
}

TEST(Figure3Semantics, ClassificationTable) {
  RwParams p;
  p.node = 2;
  p.d2_prime = 100;
  RwAlgorithm algo(p);
  EXPECT_EQ(algo.classify(make_action("READ", 2)), ActionRole::kInput);
  EXPECT_EQ(algo.classify(make_action("WRITE", 2)), ActionRole::kInput);
  EXPECT_EQ(algo.classify(make_action("RETURN", 2)), ActionRole::kOutput);
  EXPECT_EQ(algo.classify(make_action("ACK", 2)), ActionRole::kOutput);
  EXPECT_EQ(algo.classify(make_action("UPDATE", 2)), ActionRole::kInternal);
  EXPECT_EQ(algo.classify(make_action("READ", 1)), ActionRole::kNotMine);
  EXPECT_EQ(algo.classify(make_recv(2, 0, make_message("UPDATE"))),
            ActionRole::kInput);
  EXPECT_EQ(algo.classify(make_send(2, 0, make_message("UPDATE"))),
            ActionRole::kOutput);
}

}  // namespace
}  // namespace psc
