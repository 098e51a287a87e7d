// Tests for the discrete-event executor, CompositeMachine, ClockedMachine
// and ScriptMachine: composition semantics, hiding, urgency, deadlock
// detection, and clock-time adaptation.
#include <gtest/gtest.h>

#include "runtime/clocked.hpp"
#include "runtime/composite.hpp"
#include "runtime/executor.hpp"
#include "runtime/script.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

// A machine that emits "PONG" exactly `delay` after each received "PING".
class Ponger final : public Machine {
 public:
  explicit Ponger(Duration delay) : Machine("ponger"), delay_(delay) {}

  void declare_signature(SignatureDecl& decl) const override {
    decl.input("PING");
    decl.output("PONG");
  }
  void apply_input(const Action&, Time t) override {
    due_.push_back(t + delay_);
  }
  void enabled_into(Time t, Candidates& out) const override {
    out.clear();
    for (Time d : due_) {
      if (d <= t) {
        out.push_back(make_action("PONG", 0, {Value{d}}));
        break;
      }
    }
  }
  void apply_local(const Action&, Time t) override {
    for (auto it = due_.begin(); it != due_.end(); ++it) {
      if (*it <= t) {
        due_.erase(it);
        return;
      }
    }
    PSC_CHECK(false, "PONG with nothing due");
  }
  Time upper_bound(Time) const override {
    Time ub = kTimeMax;
    for (Time d : due_) ub = std::min(ub, d);
    return ub;
  }
  Time next_enabled(Time t) const override {
    Time ne = kTimeMax;
    for (Time d : due_) {
      if (d > t) ne = std::min(ne, d);
    }
    return ne;
  }

 private:
  Duration delay_;
  std::vector<Time> due_;
};

TEST(ExecutorTest, ScriptDrivesMachineAtExactTimes) {
  Executor exec({.horizon = seconds(1)});
  std::vector<ScriptMachine::Step> steps{
      {10, make_action("PING", kNoNode)},
      {50, make_action("PING", kNoNode)},
  };
  exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(steps)));
  exec.add_owned(std::make_unique<Ponger>(7));
  const auto report = exec.run();
  EXPECT_TRUE(report.quiesced);
  const auto pongs = project_name(exec.events(), "PONG");
  ASSERT_EQ(pongs.size(), 2u);
  EXPECT_EQ(pongs[0].time, 17);
  EXPECT_EQ(pongs[1].time, 57);
}

TEST(ExecutorTest, HorizonStopsFutureWork) {
  Executor exec({.horizon = 20});
  std::vector<ScriptMachine::Step> steps{
      {10, make_action("PING", kNoNode)},
      {100, make_action("PING", kNoNode)},  // beyond horizon
  };
  exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(steps)));
  exec.add_owned(std::make_unique<Ponger>(5));
  const auto report = exec.run();
  EXPECT_FALSE(report.quiesced);  // future work exists past the horizon
  EXPECT_EQ(project_name(exec.events(), "PONG").size(), 1u);
}

TEST(ExecutorTest, HidingMarksEventsInvisibleButStillRoutes) {
  Executor exec({.horizon = seconds(1)});
  std::vector<ScriptMachine::Step> steps{{10, make_action("PING", kNoNode)}};
  exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(steps)));
  exec.add_owned(std::make_unique<Ponger>(3));
  exec.hide("PING");
  exec.run();
  // PING recorded but hidden; PONG visible: routing still happened.
  const auto vis = exec.trace();
  ASSERT_EQ(vis.size(), 1u);
  EXPECT_EQ(vis[0].action.name, "PONG");
  EXPECT_EQ(exec.events().size(), 2u);
}

TEST(ExecutorTest, EventCapDetectsRunaway) {
  // A machine that is always enabled at the current time never lets time
  // advance — the cap must fire.
  class Spinner final : public Machine {
   public:
    Spinner() : Machine("spinner") {}
    void declare_signature(SignatureDecl& decl) const override {
      decl.internal("SPIN");
    }
    void apply_input(const Action&, Time) override {}
    void enabled_into(Time, Candidates& out) const override {
      out.clear();
      out.push_back(make_action("SPIN", kNoNode));
    }
    void apply_local(const Action&, Time) override {}
  };
  Executor exec({.horizon = seconds(1), .max_events = 1000});
  exec.add_owned(std::make_unique<Spinner>());
  EXPECT_THROW(exec.run(), CheckError);
}

TEST(ExecutorTest, TimeDeadlockDetected) {
  // A machine whose upper_bound forbids all time passage but never enables
  // anything: the executor must fail loudly rather than hang or silently
  // stop.
  class Blocker final : public Machine {
   public:
    Blocker() : Machine("blocker") {}
    void declare_signature(SignatureDecl&) const override {}
    void apply_input(const Action&, Time) override {}
    void enabled_into(Time, Candidates& out) const override {
      out.clear();
    }
    void apply_local(const Action&, Time) override {}
    Time upper_bound(Time t) const override { return t; }  // time frozen
  };
  Executor exec({.horizon = seconds(1)});
  exec.add_owned(std::make_unique<Blocker>());
  std::vector<ScriptMachine::Step> steps{{10, make_action("PING", kNoNode)}};
  exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(steps)));
  EXPECT_THROW(exec.run(), CheckError);
}

TEST(ExecutorTest, SeedDeterminism) {
  auto run_once = [](std::uint64_t seed) {
    Executor exec({.horizon = seconds(1), .seed = seed});
    std::vector<ScriptMachine::Step> steps;
    for (int k = 0; k < 20; ++k) {
      steps.push_back({k, make_action("PING", kNoNode)});
    }
    exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(steps)));
    exec.add_owned(std::make_unique<Ponger>(100));
    exec.run();
    return to_string(exec.events());
  };
  EXPECT_EQ(run_once(7), run_once(7));
}

// --- CompositeMachine --------------------------------------------------------

TEST(CompositeTest, InternalRoutingAndHiding) {
  // env -> (inside composite: forwarder PING->PONG) with PING hidden:
  // composite classifies PING as its own... PING comes from outside, so the
  // composite's PONG is produced by internal routing of an input.
  auto comp = std::make_unique<CompositeMachine>("node");
  comp->add(std::make_unique<Ponger>(5));
  Executor exec({.horizon = seconds(1)});
  std::vector<ScriptMachine::Step> steps{{10, make_action("PING", kNoNode)}};
  exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(steps)));
  exec.add_owned(std::move(comp));
  exec.run();
  const auto pongs = project_name(exec.events(), "PONG");
  ASSERT_EQ(pongs.size(), 1u);
  EXPECT_EQ(pongs[0].time, 15);
}

TEST(CompositeTest, MemberToMemberRouting) {
  // Two pongers chained: PING -> PONG (member 0)... PONG isn't an input of
  // Ponger, so chain via a custom relay instead.
  class Relay final : public Machine {
   public:
    Relay() : Machine("relay") {}
    void declare_signature(SignatureDecl& decl) const override {
      decl.input("PONG");
      decl.output("DONE");
    }
    void apply_input(const Action&, Time) override { pending_ = true; }
    void enabled_into(Time, Candidates& out) const override {
      out.clear();
      if (pending_) out.push_back(make_action("DONE", kNoNode));
    }
    void apply_local(const Action&, Time) override { pending_ = false; }
    Time upper_bound(Time t) const override {
      return pending_ ? t : kTimeMax;  // emit DONE before time passes
    }

   private:
    bool pending_ = false;
  };
  auto comp = std::make_unique<CompositeMachine>("node");
  comp->add(std::make_unique<Ponger>(5));
  comp->add(std::make_unique<Relay>());
  comp->hide("PONG");  // internal interface between members
  Executor exec({.horizon = seconds(1)});
  std::vector<ScriptMachine::Step> steps{{10, make_action("PING", kNoNode)}};
  exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(steps)));
  exec.add_owned(std::move(comp));
  exec.run();
  const auto done = project_name(exec.events(), "DONE");
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].time, 15);
  // PONG happened but is invisible.
  const auto pong = project_name(exec.events(), "PONG");
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_FALSE(pong[0].visible);
}

// --- ClockedMachine ----------------------------------------------------------

TEST(ClockedTest, DrivesInnerMachineByClock) {
  // Clock runs at rate 2: inner deadline of 14 clock units after a PING at
  // clock 20 (real 10) is clock 34 => real 17.
  auto traj = std::make_shared<ClockTrajectory>(
      ClockTrajectory({{0, 0}, {100, 200}}, seconds(1)));
  auto clocked = std::make_unique<ClockedMachine>(
      std::make_unique<Ponger>(14), traj);
  Executor exec({.horizon = seconds(1)});
  std::vector<ScriptMachine::Step> steps{{10, make_action("PING", kNoNode)}};
  exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(steps)));
  exec.add_owned(std::move(clocked));
  exec.run();
  const auto pongs = project_name(exec.events(), "PONG");
  ASSERT_EQ(pongs.size(), 1u);
  EXPECT_EQ(pongs[0].time, 17);     // real time
  EXPECT_EQ(pongs[0].clock, 34);    // clock metadata recorded
  // The PONG's payload carries the *clock* deadline the inner machine saw.
  EXPECT_EQ(as_int(pongs[0].action.args.at(0)), 34);
}

TEST(ClockedTest, ClockReadingExposed) {
  auto traj = std::make_shared<ClockTrajectory>(
      ClockTrajectory({{0, 0}, {10, 30}}, seconds(1)));
  ClockedMachine m(std::make_unique<Ponger>(1), traj);
  EXPECT_EQ(m.clock_reading(5), 15);
  EXPECT_EQ(m.clock_reading(10), 30);
}

// --- ScriptMachine -----------------------------------------------------------

TEST(ScriptTest, RecordsAcceptedInputs) {
  ScriptMachine s("env", {});
  s.accept_kind("X");
  EXPECT_EQ(s.classify(make_action("X", 0)), ActionRole::kInput);
  EXPECT_EQ(s.classify(make_action("Y", 0)), ActionRole::kNotMine);
  s.apply_input(make_action("X", 0), 42);
  ASSERT_EQ(s.received().size(), 1u);
  EXPECT_EQ(s.received()[0].time, 42);
}

TEST(ScriptTest, UnsortedStepsRejected) {
  EXPECT_THROW(ScriptMachine("env", {{10, make_action("A", 0)},
                                     {5, make_action("B", 0)}}),
               CheckError);
}

}  // namespace
}  // namespace psc
