// Theorem 5.2 beyond registers: the leader election and the replicated
// queue pushed through the full MMT pipeline (clockified + buffered +
// discrete steps/ticks). Their safety properties survive when the design
// constants account for d2' = d2 + 2eps + k*ell.
#include <gtest/gtest.h>

#include "algos/election.hpp"
#include "mmt/mmt_system.hpp"
#include "rw/queue.hpp"

namespace psc {
namespace {

class MmtBreadthSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MmtBreadthSeeds, ElectionSurvivesTheMmtPipeline) {
  const int n = 4;
  const Duration d2 = microseconds(150), eps = microseconds(30),
                 ell = microseconds(5);
  const int k = n + 1;  // claim burst: n-1 sends, plus slack
  Executor exec({.horizon = seconds(10), .seed = GetParam()});
  ElectionParams p;
  p.d2_design = mmt_d2(d2, eps, k, ell);
  p.slot = p.d2_design + microseconds(20);
  auto nodes = make_election_nodes(n, p);
  std::vector<ElectionNode*> handles;
  for (auto& m : nodes) handles.push_back(dynamic_cast<ElectionNode*>(m.get()));
  std::vector<std::shared_ptr<const ClockTrajectory>> trajs;
  OpposingOffsetDrift drift;
  Rng seeder(GetParam() ^ 0x3333);
  for (int i = 0; i < n; ++i) {
    Rng r = seeder.split();
    trajs.push_back(std::make_shared<ClockTrajectory>(
        drift.generate(eps, seconds(10), r)));
  }
  ChannelConfig cc;
  cc.d1 = 0;
  cc.d2 = d2;
  cc.seed = GetParam();
  MmtConfig mc;
  mc.ell = ell;
  mc.seed = GetParam() ^ 0x77;
  add_mmt_system(exec, Graph::complete(n), cc, std::move(nodes), trajs, mc);
  // Election terminates on its own, but the tick/step machinery does not:
  // stop once every node has announced.
  exec.stop_when([&handles] {
    for (const auto* h : handles) {
      if (h->announced() < 0) return false;
    }
    return true;
  });
  exec.run();
  int claims = 0;
  for (const auto* h : handles) {
    EXPECT_EQ(h->announced(), n - 1) << "seed " << GetParam();
    if (h->claimed()) ++claims;
  }
  EXPECT_EQ(claims, 1) << "seed " << GetParam();
}

TEST_P(MmtBreadthSeeds, QueueSurvivesTheMmtPipeline) {
  const int n = 3;
  const Duration d2 = microseconds(200), eps = microseconds(30),
                 ell = microseconds(5);
  const int k = n + 2;
  Executor exec({.horizon = seconds(10), .seed = GetParam()});
  std::vector<QueueClient*> clients;
  Rng cseed(GetParam() ^ 0x9c);
  for (int i = 0; i < n; ++i) {
    QueueClient::Options o;
    o.node = i;
    o.num_ops = 8;
    o.enq_fraction = 0.5;
    o.think_max = microseconds(300);
    o.seed = cseed.next();
    auto c = std::make_unique<QueueClient>(o);
    clients.push_back(c.get());
    exec.add_owned(std::move(c));
  }
  auto nodes = make_queue_nodes(n, mmt_d2(d2, eps, k, ell), /*delta=*/1);
  std::vector<std::shared_ptr<const ClockTrajectory>> trajs;
  ZigzagDrift drift(0.3);
  Rng seeder(GetParam() ^ 0x4444);
  for (int i = 0; i < n; ++i) {
    Rng r = seeder.split();
    trajs.push_back(std::make_shared<ClockTrajectory>(
        drift.generate(eps, seconds(10), r)));
  }
  ChannelConfig cc;
  cc.d1 = microseconds(10);
  cc.d2 = d2;
  cc.seed = GetParam();
  MmtConfig mc;
  mc.ell = ell;
  mc.seed = GetParam() ^ 0x88;
  add_mmt_system(exec, Graph::complete_with_self_loops(n), cc,
                 std::move(nodes), trajs, mc);
  exec.stop_when([&clients] {
    for (const auto* c : clients) {
      if (!c->finished()) return false;
    }
    return true;
  });
  exec.run();
  std::vector<QueueOp> ops;
  for (const auto* c : clients) {
    ops.insert(ops.end(), c->operations().begin(), c->operations().end());
  }
  ASSERT_GE(ops.size(), 15u);
  EXPECT_TRUE(check_linearizable_queue(ops)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MmtBreadthSeeds,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace psc
