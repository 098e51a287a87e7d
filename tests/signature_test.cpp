// Declared signatures are exact. For every machine that declares, and for
// every action kind over the names it and its members declare (plus the MMT
// wrapper's TICK and MMTSTEP) with node and peer in {kNoNode, 0..n},
// classify() must equal the role the declaration gives that kind — local
// beats input, as the executor resolves it — and kNotMine when no entry
// matches. That checks
// both directions: every declared kind classifies as declared, and every
// kind classify() claims is declared. Lint's PSC008 only probes the first.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "algos/election.hpp"
#include "algos/heartbeat.hpp"
#include "algos/tdma.hpp"
#include "algos/timesync.hpp"
#include "algos/tobcast.hpp"
#include "mmt/mmt_system.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "rw/multi.hpp"
#include "rw/queue.hpp"
#include "rw/sliced.hpp"
#include "transform/clock_system.hpp"

namespace psc {
namespace {

bool matches(const SignatureDecl::Entry& e, const Action& a) {
  return e.name == a.name && (e.node == kAnyNode || e.node == a.node) &&
         (e.peer == kAnyNode || e.peer == a.peer);
}

ActionRole declared_role(const SignatureDecl& decl, const Action& a) {
  ActionRole role = ActionRole::kNotMine;
  for (const SignatureDecl::Entry& e : decl.entries()) {
    if (!matches(e, a)) continue;
    if (e.role != ActionRole::kInput) return e.role;
    role = ActionRole::kInput;
  }
  return role;
}

// The names `m` and its members (recursively) declare: a wrapper may drop
// a member's name from its own declaration, and must then classify it
// kNotMine.
void collect_names(const Machine& m, std::set<std::string>& names) {
  SignatureDecl decl;
  if (m.declare_signature(decl)) {
    for (const SignatureDecl::Entry& e : decl.entries()) names.insert(e.name);
  }
  for (std::size_t k = 0; k < m.member_count(); ++k) {
    collect_names(*m.member_at(k), names);
  }
}

// Asserts that `m` declares, and that its declaration is exact over nodes
// and peers in {kNoNode, 0..n}.
void expect_exact(const Machine& m, int n) {
  SignatureDecl decl;
  ASSERT_TRUE(m.declare_signature(decl)) << m.name();
  std::set<std::string> names = {"TICK", "MMTSTEP"};
  collect_names(m, names);
  for (const std::string& name : names) {
    for (int node = kNoNode; node <= n; ++node) {
      for (int peer = kNoNode; peer <= n; ++peer) {
        Action a;
        a.name = name;
        a.node = node;
        a.peer = peer;
        EXPECT_EQ(to_string(m.classify(a)),
                  to_string(declared_role(decl, a)))
            << m.name() << " on " << name << "(" << node << "," << peer
            << ")";
      }
    }
  }
}

std::unique_ptr<MmtNode> mmt_over(std::unique_ptr<Machine> algorithm,
                                  int node, const Graph& g) {
  return std::make_unique<MmtNode>(
      node,
      make_node_composite(std::move(algorithm), node, g.out_peers(node),
                          g.in_peers(node)),
      microseconds(5), Rng(1));
}

RwParams rw_params(int node, int n) {
  RwParams p;
  p.node = node;
  p.num_nodes = n;
  p.d2_prime = microseconds(100);
  return p;
}

ElectionParams election_params(int node, int n) {
  ElectionParams p;
  p.node = node;
  p.num_nodes = n;
  p.slot = microseconds(100);
  return p;
}

TEST(SignatureExactness, MmtNodeOverTheRwNode) {
  const int n = 3;
  const Graph g = Graph::complete_with_self_loops(n);
  for (int i = 0; i < n; ++i) {
    const auto node = mmt_over(std::make_unique<RwAlgorithm>(rw_params(i, n)),
                               i, g);
    expect_exact(*node, n);
    // Every RECVMSG(i, j) is released by R_ji inside the node, so none
    // crosses the MMT boundary.
    SignatureDecl decl;
    ASSERT_TRUE(node->declare_signature(decl));
    for (const SignatureDecl::Entry& e : decl.entries()) {
      EXPECT_NE(e.name, "RECVMSG");
    }
  }
}

TEST(SignatureExactness, MmtNodeOverTheElectionNode) {
  const int n = 4;
  for (const Graph& g : {Graph::complete(n), Graph::ring(n)}) {
    for (int i = 0; i < n; ++i) {
      expect_exact(
          *mmt_over(std::make_unique<ElectionNode>(election_params(i, n)), i,
                    g),
          n);
    }
  }
}

TEST(SignatureExactness, MmtNodeOverTheQueueNode) {
  const int n = 3;
  auto nodes = make_queue_nodes(n, microseconds(100), 1);
  const Graph g = Graph::complete_with_self_loops(n);
  for (int i = 0; i < n; ++i) {
    expect_exact(*mmt_over(std::move(nodes[static_cast<std::size_t>(i)]), i,
                           g),
                 n);
  }
}

TEST(SignatureExactness, PartlyShadowedInputKeepsMmtNodeUndeclared) {
  // TimeServer inputs RECVMSG(0, *); inside the node only RECVMSG(0, 1) is
  // released by a receive buffer, so RECVMSG(0, 0) and RECVMSG(0, 2) still
  // cross the boundary while RECVMSG(0, 1) does not. No per-kind entry
  // says that, so the node must stay on the classify() path.
  const auto node = std::make_unique<MmtNode>(
      0, make_node_composite(std::make_unique<TimeServer>(0), 0, {1}, {1}),
      microseconds(5), Rng(1));
  SignatureDecl decl;
  EXPECT_FALSE(node->declare_signature(decl));
  Action a = make_action("RECVMSG", 0);
  a.peer = 1;
  EXPECT_EQ(node->classify(a), ActionRole::kNotMine);
  a.peer = 2;
  EXPECT_EQ(node->classify(a), ActionRole::kInput);
}

TEST(SignatureExactness, AlgorithmsAndClients) {
  const int n = 3;
  const int i = 1;
  expect_exact(RwAlgorithm(rw_params(i, n)), n);
  ClientOptions rc;
  rc.node = i;
  expect_exact(RwClient(rc), n);

  MultiRwParams mp;
  mp.base = rw_params(i, n);
  expect_exact(MultiRwAlgorithm(mp), n);
  MultiRwClient::Options mc;
  mc.node = i;
  expect_exact(MultiRwClient(mc), n);

  SlicedParams sp;
  sp.node = i;
  sp.num_nodes = n;
  sp.u = microseconds(10);
  expect_exact(SlicedRw(sp), n);

  expect_exact(ElectionNode(election_params(i, n)), n);
  expect_exact(HeartbeatSender(i, 2, microseconds(10)), n);
  expect_exact(HeartbeatMonitor(i, 0, microseconds(10)), n);

  TdmaParams tp;
  tp.node = i;
  tp.num_nodes = n;
  tp.slot = microseconds(10);
  expect_exact(TdmaMutex(tp), n);

  expect_exact(TimeServer(i), n);
  expect_exact(SyncClient(i, 0, microseconds(10), 3, 0), n);

  TobcastParams bp;
  bp.node = i;
  bp.num_nodes = n;
  expect_exact(TobcastNode(bp), n);
  expect_exact(QueueServer(i, n), n);
}

TEST(SignatureExactness, RwMmtSystemRoutesWithoutClassify) {
  const int n = 3;
  Executor exec({.horizon = milliseconds(2), .seed = 3});
  for (int i = 0; i < n; ++i) {
    ClientOptions o;
    o.node = i;
    o.num_ops = 4;
    o.think_max = microseconds(100);
    o.seed = 10 + static_cast<std::uint64_t>(i);
    exec.add_owned(std::make_unique<RwClient>(o));
  }
  std::vector<std::shared_ptr<const ClockTrajectory>> trajs;
  for (int i = 0; i < n; ++i) {
    trajs.push_back(
        std::make_shared<ClockTrajectory>(ClockTrajectory::perfect()));
  }
  ChannelConfig cc;
  cc.d1 = microseconds(10);
  cc.d2 = microseconds(50);
  MmtConfig mc;
  mc.ell = microseconds(5);
  RwParams p = rw_params(0, n);
  p.d2_prime = mmt_d2(cc.d2, 0, n + 1, mc.ell);
  add_mmt_system(exec, Graph::complete_with_self_loops(n), cc,
                 make_rw_algorithms(n, p), trajs, mc);
  EXPECT_EQ(exec.declared_machine_count(), exec.machine_count());
  exec.run();
  EXPECT_GT(exec.stats().events, 1000u);
  EXPECT_GT(exec.stats().route_fast, 0u);
  EXPECT_EQ(exec.stats().route_classify, 0u);
  EXPECT_EQ(exec.stats().fanout_classify_calls, 0u);
}

}  // namespace
}  // namespace psc
