// Additional runtime coverage: executor options (stop_when, record toggle),
// nested composites, composition compatibility checking, and graph helpers.
#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/composite.hpp"
#include "runtime/executor.hpp"
#include "runtime/script.hpp"
#include "runtime/system.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

// Emits TICKTOCK every `period`, forever.
class Metronome final : public Machine {
 public:
  explicit Metronome(Duration period) : Machine("metronome"),
                                        period_(period) {}
  int beats = 0;

  void declare_signature(SignatureDecl& decl) const override {
    decl.output("TICKTOCK");
  }
  void apply_input(const Action&, Time) override {}
  void enabled_into(Time t, Candidates& out) const override {
    out.clear();
    if (t >= next_) out.push_back(make_action("TICKTOCK", kNoNode));
  }
  void apply_local(const Action&, Time) override {
    ++beats;
    next_ += period_;
  }
  Time upper_bound(Time t) const override {
    return next_ <= t ? t : next_;
  }
  Time next_enabled(Time t) const override {
    return next_ > t ? next_ : kTimeMax;
  }

 private:
  Duration period_;
  Time next_ = 0;
};

TEST(ExecutorOptionsTest, StopWhenHaltsNonQuiescentSystem) {
  Executor exec({.horizon = seconds(100)});
  auto m = std::make_unique<Metronome>(milliseconds(1));
  Metronome* mp = m.get();
  exec.add_owned(std::move(m));
  exec.stop_when([mp] { return mp->beats >= 10; });
  const auto report = exec.run();
  EXPECT_EQ(mp->beats, 10);
  EXPECT_FALSE(report.quiesced);
  EXPECT_LE(report.end_time, milliseconds(10));
}

TEST(ExecutorOptionsTest, RecordingCanBeDisabled) {
  Executor exec({.horizon = milliseconds(5), .record_events = false});
  exec.add_owned(std::make_unique<Metronome>(milliseconds(1)));
  const auto report = exec.run();
  EXPECT_GT(report.steps, 0u);
  EXPECT_TRUE(exec.events().empty());
}

TEST(ExecutorOptionsTest, IncompatibleCompositionDetected) {
  // Two machines both controlling TICKTOCK: the executor must reject the
  // composition when the action fires (Def 2.2 compatibility).
  Executor exec({.horizon = milliseconds(5)});
  exec.add_owned(std::make_unique<Metronome>(milliseconds(1)));
  exec.add_owned(std::make_unique<Metronome>(milliseconds(1)));
  EXPECT_THROW(exec.run(), CheckError);
}

TEST(CompositeExtraTest, NestedCompositesRoute) {
  // composite(composite(metronome)) still emits.
  auto inner = std::make_unique<CompositeMachine>("inner");
  inner->add(std::make_unique<Metronome>(milliseconds(1)));
  auto outer = std::make_unique<CompositeMachine>("outer");
  outer->add(std::move(inner));
  Executor exec({.horizon = milliseconds(5)});
  exec.add_owned(std::move(outer));
  exec.run();
  EXPECT_EQ(project_name(exec.events(), "TICKTOCK").size(), 6u);  // t=0..5ms
}

TEST(CompositeExtraTest, MemberAccessorBounds) {
  CompositeMachine comp("c");
  comp.add(std::make_unique<Metronome>(1));
  EXPECT_NO_THROW(comp.member(0));
  EXPECT_THROW(comp.member(1), CheckError);
}

TEST(CompositeExtraTest, DuplicateControllerRejectedInClassify) {
  CompositeMachine comp("c");
  comp.add(std::make_unique<Metronome>(1));
  comp.add(std::make_unique<Metronome>(1));
  EXPECT_THROW(comp.classify(make_action("TICKTOCK", kNoNode)), CheckError);
}

// Def 2.2 compatibility is a condition on signatures, so a composite whose
// members both locally control a kind is rejected when it is assembled
// into an executor, before any event fires.
TEST(CompositeExtraTest, TwoMembersClaimingAnOutputKindFailAssembly) {
  auto comp = std::make_unique<CompositeMachine>("c");
  comp->add(std::make_unique<Metronome>(1));
  comp->add(std::make_unique<Metronome>(1));
  Executor exec({.horizon = milliseconds(5)});
  EXPECT_THROW(exec.add_owned(std::move(comp)), CheckError);
}

TEST(CompositeExtraTest, TwoMembersClaimingAnInternalKindFailAssembly) {
  class Stepper final : public Machine {
   public:
    explicit Stepper(int node) : Machine("stepper"), node_(node) {}
    void declare_signature(SignatureDecl& decl) const override {
      decl.internal("STEP", node_);
    }
    void apply_input(const Action&, Time) override {}
    void enabled_into(Time, Candidates& out) const override {
      out.clear();
    }
    void apply_local(const Action&, Time) override {}

   private:
    int node_;
  };
  CompositeMachine disjoint("disjoint");
  disjoint.add(std::make_unique<Stepper>(0));
  disjoint.add(std::make_unique<Stepper>(1));
  disjoint.hide("STEP");
  EXPECT_EQ(disjoint.classify(make_action("STEP", 1)), ActionRole::kInternal);
  CompositeMachine comp("c");
  comp.add(std::make_unique<Stepper>(0));
  comp.add(std::make_unique<Stepper>(kAnyNode));
  comp.hide("STEP");
  EXPECT_THROW(comp.signature(), CheckError);
}

// --- graph helpers ------------------------------------------------------------

TEST(GraphTest, CompleteGraphEdges) {
  const Graph g = Graph::complete(4);
  EXPECT_EQ(g.edges.size(), 12u);
  EXPECT_EQ(g.out_peers(0).size(), 3u);
  EXPECT_EQ(g.in_peers(3).size(), 3u);
  for (int j : g.out_peers(1)) EXPECT_NE(j, 1);
}

TEST(GraphTest, CompleteWithSelfLoops) {
  const Graph g = Graph::complete_with_self_loops(3);
  EXPECT_EQ(g.edges.size(), 9u);
  const auto peers = g.out_peers(2);
  EXPECT_NE(std::find(peers.begin(), peers.end(), 2), peers.end());
}

TEST(GraphTest, Ring) {
  const Graph g = Graph::ring(5);
  EXPECT_EQ(g.edges.size(), 5u);
  ASSERT_EQ(g.out_peers(4).size(), 1u);
  EXPECT_EQ(g.out_peers(4)[0], 0);
  ASSERT_EQ(g.in_peers(0).size(), 1u);
  EXPECT_EQ(g.in_peers(0)[0], 4);
}

}  // namespace
}  // namespace psc
