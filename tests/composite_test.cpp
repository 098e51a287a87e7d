// CompositeMachine routing (Def 2.2 composition inside one machine): an
// input goes to every member that inputs its kind, in member order; a local
// action goes to the member that controls it, and an output is routed on to
// the members that input it, never back to its owner. The composite routes
// through a per-kind table, so these tests also pin what happens when a
// kind is routed before a later add().
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "runtime/composite.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

// A member that declares the given entries, offers nothing, and logs every
// action applied to it as "<name> in X" or "<name> local X".
class Recorder final : public Machine {
 public:
  Recorder(std::string name, std::vector<SignatureDecl::Entry> entries,
           std::vector<std::string>& log)
      : Machine(std::move(name)), entries_(std::move(entries)), log_(log) {}

  void declare_signature(SignatureDecl& decl) const override {
    for (const auto& e : entries_) decl.add(e.name, e.node, e.peer, e.role);
  }
  void apply_input(const Action& a, Time /*t*/) override {
    log_.push_back(name() + " in " + a.name.str());
  }
  void enabled_into(Time /*t*/, Candidates& out) const override {
    out.clear();
  }
  void apply_local(const Action& a, Time /*t*/) override {
    log_.push_back(name() + " local " + a.name.str());
  }

 private:
  std::vector<SignatureDecl::Entry> entries_;
  std::vector<std::string>& log_;
};

SignatureDecl::Entry in(std::string name) {
  return {std::move(name), kAnyNode, kAnyNode, ActionRole::kInput};
}
SignatureDecl::Entry out(std::string name) {
  return {std::move(name), kAnyNode, kAnyNode, ActionRole::kOutput};
}

std::vector<std::uint32_t> touched(CompositeMachine& c) {
  std::vector<std::uint32_t> parts;
  c.take_touched_parts(parts);
  return parts;
}

TEST(CompositeRouting, InputReachesItsInputMembersInMemberOrder) {
  std::vector<std::string> log;
  CompositeMachine c("node");
  c.add(std::make_unique<Recorder>("a", std::vector{in("X")}, log));
  c.add(std::make_unique<Recorder>("b", std::vector{in("Y")}, log));
  c.add(std::make_unique<Recorder>("c", std::vector{in("X")}, log));
  for (int round = 0; round < 2; ++round) {  // built, then looked up
    log.clear();
    c.apply_input(make_action("X", 0), 0);
    EXPECT_EQ(log, (std::vector<std::string>{"a in X", "c in X"}));
    EXPECT_EQ(touched(c), (std::vector<std::uint32_t>{0, 2}));
  }
}

// Member b both outputs X and declares it as an input: local beats input,
// so b is X's owner and is not among its inputs.
TEST(CompositeRouting, OutputGoesToOtherMembersNeverBackToItsOwner) {
  std::vector<std::string> log;
  CompositeMachine c("node");
  c.add(std::make_unique<Recorder>("a", std::vector{in("X")}, log));
  c.add(std::make_unique<Recorder>("b", std::vector{out("X"), in("X")}, log));
  c.add(std::make_unique<Recorder>("c", std::vector{in("X")}, log));
  c.apply_local(make_action("X", 0), 0);
  EXPECT_EQ(log,
            (std::vector<std::string>{"b local X", "a in X", "c in X"}));
  EXPECT_EQ(touched(c), (std::vector<std::uint32_t>{1, 0, 2}));
}

// An internal action stays with its owner.
TEST(CompositeRouting, InternalActionIsNotRouted) {
  std::vector<std::string> log;
  CompositeMachine c("node");
  c.add(std::make_unique<Recorder>(
      "a", std::vector<SignatureDecl::Entry>{
               {"U", kAnyNode, kAnyNode, ActionRole::kInternal}},
      log));
  c.add(std::make_unique<Recorder>("b", std::vector{in("U")}, log));
  c.apply_local(make_action("U", 0), 0);
  EXPECT_EQ(log, (std::vector<std::string>{"a local U"}));
}

TEST(CompositeRouting, KindNoMemberControlsThrows) {
  std::vector<std::string> log;
  CompositeMachine c("node");
  c.add(std::make_unique<Recorder>("a", std::vector{in("X")}, log));
  EXPECT_THROW(c.apply_local(make_action("X", 0), 0), CheckError);
  EXPECT_THROW(c.apply_local(make_action("Z", 0), 0), CheckError);
  EXPECT_TRUE(log.empty());
}

TEST(CompositeRouting, AddAfterRoutingReachesTheNewMember) {
  std::vector<std::string> log;
  CompositeMachine c("node");
  c.add(std::make_unique<Recorder>("a", std::vector{out("X")}, log));
  c.add(std::make_unique<Recorder>("b", std::vector{in("X")}, log));
  c.apply_local(make_action("X", 0), 0);
  c.apply_input(make_action("Y", 0), 0);  // no member inputs Y yet
  c.add(std::make_unique<Recorder>("c", std::vector{in("X"), in("Y")}, log));
  log.clear();
  c.apply_local(make_action("X", 0), 0);
  c.apply_input(make_action("Y", 0), 0);
  EXPECT_EQ(log, (std::vector<std::string>{"a local X", "b in X", "c in X",
                                           "c in Y"}));
}

}  // namespace
}  // namespace psc
