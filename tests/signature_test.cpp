// Signatures are declared once. Machine::classify() is derived from
// declare_signature, so a machine's classify() cannot disagree with its own
// declaration; what can go wrong is the declaration itself. This file checks
// it against oracles that do not read it:
//  - each wrapper's derived classify() equals the literal fold over its
//    members' classify() — the composite's (Def 2.2: local beats input,
//    hidden names become internal), ClockedMachine's (the inner machine's,
//    unchanged), RenamedMachine's (through the name map) and MmtNode's
//    (TICK(node) input, MMTSTEP(node) internal, inner internals silent,
//    Def 5.1) — for every name the machine tree declares plus TICK and
//    MMTSTEP, with node and peer in {kNoNode, 0..n};
//  - the derivation's own rule, local beats input;
//  - the per-class facts that the hand-written classify() overrides encoded
//    before the declaration became the only description;
//  - a wrapper that no per-kind signature describes fails at construction;
//  - on a whole MMT run, the executor's interned routing and the derived
//    classify() agree on who controls every executed event.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "algos/election.hpp"
#include "algos/flood.hpp"
#include "algos/timesync.hpp"
#include "algos/tobcast.hpp"
#include "channel/channel.hpp"
#include "mmt/mmt_system.hpp"
#include "mmt/tick_source.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "rw/queue.hpp"
#include "runtime/clocked.hpp"
#include "runtime/renamed.hpp"
#include "transform/clock_system.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

bool is_local(ActionRole r) {
  return r == ActionRole::kOutput || r == ActionRole::kInternal;
}

// The names `m` and its members (recursively) declare, plus the MMT
// wrapper's TICK and MMTSTEP.
void collect_names(const Machine& m, std::set<std::string>& names) {
  for (const SignatureDecl::Entry& e : m.signature().entries()) {
    names.insert(e.name);
  }
  for (std::size_t k = 0; k < m.member_count(); ++k) {
    collect_names(*m.member_at(k), names);
  }
}

// Calls fn(a) for every kind over the names of `m`'s tree, with node and
// peer in {kNoNode, 0..n}.
template <typename Fn>
void for_each_kind(const Machine& m, int n, Fn fn) {
  std::set<std::string> names = {"TICK", "MMTSTEP"};
  collect_names(m, names);
  for (const std::string& name : names) {
    for (int node = kNoNode; node <= n; ++node) {
      for (int peer = kNoNode; peer <= n; ++peer) {
        Action a;
        a.name = name;
        a.node = node;
        a.peer = peer;
        fn(a);
      }
    }
  }
}

std::string kind_str(const Action& a) {
  return a.name + "(" + std::to_string(a.node) + "," +
         std::to_string(a.peer) + ")";
}

// Composition with hiding, member by member: a member that locally
// controls the action makes it the composite's (internal when hidden),
// else any member input makes it an input.
ActionRole composite_fold(const CompositeMachine& c,
                          const std::set<std::string>& hidden,
                          const Action& a) {
  bool any_input = false;
  for (std::size_t k = 0; k < c.size(); ++k) {
    const ActionRole r = c.member(k).classify(a);
    if (is_local(r)) {
      return hidden.count(a.name) != 0 ? ActionRole::kInternal
                                       : ActionRole::kOutput;
    }
    if (r == ActionRole::kInput) any_input = true;
  }
  return any_input ? ActionRole::kInput : ActionRole::kNotMine;
}

// Def 5.1's signature given the wrapped machine's role for `a`.
ActionRole mmt_fold(int node, ActionRole inner, const Action& a) {
  if (a.name == "TICK" && a.node == node) return ActionRole::kInput;
  if (a.name == "MMTSTEP" && a.node == node) return ActionRole::kInternal;
  return inner == ActionRole::kInternal ? ActionRole::kNotMine : inner;
}

// The Simulation 1 node composite hides both internal interfaces.
const std::set<std::string> kNodeHidden = {"SENDMSG", "RECVMSG"};

std::unique_ptr<MmtNode> mmt_over(std::unique_ptr<Machine> algorithm,
                                  int node, const Graph& g) {
  return std::make_unique<MmtNode>(
      node,
      make_node_composite(std::move(algorithm), node, g.out_peers(node),
                          g.in_peers(node)),
      microseconds(5), Rng(1));
}

// Checks the MMT node and the node composite inside it against their folds.
void expect_mmt_node_folds(MmtNode& node, int i, int n) {
  const auto& comp = dynamic_cast<const CompositeMachine&>(node.inner());
  for_each_kind(node, n, [&](const Action& a) {
    const ActionRole folded = composite_fold(comp, kNodeHidden, a);
    EXPECT_EQ(to_string(comp.classify(a)), to_string(folded))
        << comp.name() << " on " << kind_str(a);
    EXPECT_EQ(to_string(node.classify(a)), to_string(mmt_fold(i, folded, a)))
        << node.name() << " on " << kind_str(a);
  });
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
    expect_mmt_node_folds(*node, i, n);
    // Every RECVMSG(i, j) is released by R_ji inside the node, so none
    // crosses the MMT boundary.
    for (const SignatureDecl::Entry& e : node->signature().entries()) {
      EXPECT_NE(e.name, "RECVMSG");
    }
  }
}

TEST(SignatureExactness, MmtNodeOverTheElectionNode) {
  const int n = 4;
  for (const Graph& g : {Graph::complete(n), Graph::ring(n)}) {
    for (int i = 0; i < n; ++i) {
      const auto node = mmt_over(
          std::make_unique<ElectionNode>(election_params(i, n)), i, g);
      expect_mmt_node_folds(*node, i, n);
    }
  }
}

TEST(SignatureExactness, MmtNodeOverTheQueueNode) {
  const int n = 3;
  auto nodes = make_queue_nodes(n, microseconds(100), 1);
  const Graph g = Graph::complete_with_self_loops(n);
  for (int i = 0; i < n; ++i) {
    const auto node = mmt_over(std::move(nodes[static_cast<std::size_t>(i)]),
                               i, g);
    expect_mmt_node_folds(*node, i, n);
  }
}

TEST(SignatureExactness, ClockedAndRenamedFoldThroughTheirInner) {
  const int n = 3;
  const Graph g = Graph::complete_with_self_loops(n);
  ClockedMachine clocked(
      make_node_composite(std::make_unique<RwAlgorithm>(rw_params(1, n)), 1,
                          g.out_peers(1), g.in_peers(1)),
      std::make_shared<const ClockTrajectory>(ClockTrajectory::perfect()));
  for_each_kind(clocked, n, [&](const Action& a) {
    EXPECT_EQ(to_string(clocked.classify(a)),
              to_string(clocked.inner().classify(a)))
        << kind_str(a);
  });

  const std::map<std::string, std::string> outer_of_inner = {
      {"SENDMSG", "PUT"}, {"RECVMSG", "SENDMSG"}};
  RenamedMachine ren(std::make_unique<Channel>(0, 1, 0, microseconds(10),
                                               DelayPolicy::uniform(), Rng(1)),
                     outer_of_inner);
  const Machine& inner = ren.inner();
  for_each_kind(ren, n, [&](const Action& a) {
    // Through the name map: an outer name is the image of at most one
    // inner name; an inner name renamed away is no longer in the outer
    // signature; any other name passes through.
    Action inner_a = a;
    ActionRole want = ActionRole::kNotMine;
    bool image = false;
    for (const auto& [in, out] : outer_of_inner) {
      if (out == a.name) {
        inner_a.name = in;
        image = true;
      }
    }
    if (image || outer_of_inner.count(a.name) == 0) {
      want = inner.classify(inner_a);
    }
    EXPECT_EQ(to_string(ren.classify(a)), to_string(want)) << kind_str(a);
  });
}

TEST(SignatureExactness, PartlyShadowedInputRejectsMmtNode) {
  // TimeServer inputs RECVMSG(0, *); inside the node only RECVMSG(0, 1) is
  // released by a receive buffer, so RECVMSG(0, 0) and RECVMSG(0, 2) would
  // cross the boundary while RECVMSG(0, 1) would not. No per-kind entry
  // says that.
  EXPECT_THROW(
      MmtNode(0,
              make_node_composite(std::make_unique<TimeServer>(0), 0, {1},
                                  {1}),
              microseconds(5), Rng(1)),
      CheckError);
  // Nor can the wrapped machine own the node's TICK.
  auto traj =
      std::make_shared<const ClockTrajectory>(ClockTrajectory::perfect());
  EXPECT_THROW(MmtNode(0,
                       std::make_unique<TickSource>(0, traj, microseconds(5),
                                                    Rng(1)),
                       microseconds(5), Rng(1)),
               CheckError);
}

TEST(SignatureExactness, AlgorithmsAndClients) {
  const int n = 3;
  const int i = 1;
  const auto recv = [](int node, int peer) {
    Action a = make_action("RECVMSG", node);
    a.peer = peer;
    return a;
  };
  // Figure 3's RECVMSG_i(j, m) ranges over j in procs, for the register
  // and for the broadcast under the queue.
  RwAlgorithm rw(rw_params(i, n));
  TobcastParams bp;
  bp.node = i;
  bp.num_nodes = n;
  TobcastNode tob(bp);
  for (const Machine* m : {static_cast<const Machine*>(&rw),
                           static_cast<const Machine*>(&tob)}) {
    for (int peer = kNoNode; peer <= n; ++peer) {
      EXPECT_EQ(m->classify(recv(i, peer)),
                peer >= 0 && peer < n ? ActionRole::kInput
                                      : ActionRole::kNotMine)
          << m->name() << " peer " << peer;
      EXPECT_EQ(m->classify(recv(i + 1, peer)), ActionRole::kNotMine);
    }
  }
  EXPECT_EQ(rw.classify(make_action("UPDATE", i)), ActionRole::kInternal);
  EXPECT_EQ(tob.classify(make_action("TOBCAST", i)), ActionRole::kInput);

  // Election claims travel between distinct nodes only.
  ElectionNode election(election_params(i, n));
  for (int peer = kNoNode; peer <= n; ++peer) {
    EXPECT_EQ(election.classify(recv(i, peer)),
              peer >= 0 && peer < n && peer != i ? ActionRole::kInput
                                                 : ActionRole::kNotMine)
        << "peer " << peer;
  }
  EXPECT_EQ(election.classify(make_action("CLAIM_SELF", i)),
            ActionRole::kInternal);

  // COMPLETE is the flood source's alone.
  FloodParams fp;
  fp.node = i;
  fp.source = true;
  const FloodNode source(fp);
  fp.source = false;
  const FloodNode relay(fp);
  EXPECT_EQ(source.classify(make_action("COMPLETE", i)),
            ActionRole::kOutput);
  EXPECT_EQ(relay.classify(make_action("COMPLETE", i)), ActionRole::kNotMine);
  EXPECT_EQ(relay.classify(recv(i, 0)), ActionRole::kInput);
  EXPECT_EQ(relay.classify(make_action("DELIVER", i)), ActionRole::kOutput);
}

TEST(SignatureExactness, LocalEntryBeatsInputEntry) {
  // Declares X(0) as an input before declaring every X as an output.
  class Both final : public Machine {
   public:
    Both() : Machine("both") {}
    void declare_signature(SignatureDecl& decl) const override {
      decl.input("X", 0);
      decl.output("X");
    }
    void apply_input(const Action&, Time) override {}
    std::vector<Action> enabled(Time) const override { return {}; }
    void apply_local(const Action&, Time) override {}
  };
  const Both m;
  EXPECT_EQ(m.classify(make_action("X", 0)), ActionRole::kOutput);
  EXPECT_EQ(m.classify(make_action("X", 1)), ActionRole::kOutput);
  EXPECT_EQ(m.classify(make_action("Y", 0)), ActionRole::kNotMine);
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
  exec.run();
  EXPECT_GT(exec.stats().events, 1000u);
  // The wheel loop routed every event through its interned index; the
  // derived classify() must name the same owner as its only controller.
  const std::vector<const Machine*> machines = exec.composition();
  std::set<std::string> checked;
  for (const TimedEvent& e : exec.events()) {
    const std::string kind = kind_str(e.action) + "@" + std::to_string(e.owner);
    if (!checked.insert(kind).second) continue;
    for (std::size_t m = 0; m < machines.size(); ++m) {
      EXPECT_EQ(is_local(machines[m]->classify(e.action)),
                static_cast<int>(m) == e.owner)
          << machines[m]->name() << " on " << kind;
    }
  }
  EXPECT_GT(checked.size(), 10u);
}

}  // namespace
}  // namespace psc
