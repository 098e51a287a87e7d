// Unit tests for src/core: time, values, messages, actions, traces.
#include <gtest/gtest.h>

#include "core/action.hpp"
#include "core/message.hpp"
#include "core/time.hpp"
#include "core/trace.hpp"
#include "core/value.hpp"
#include "runtime/executor.hpp"
#include "runtime/script.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

// --- time ------------------------------------------------------------------

TEST(TimeTest, UnitHelpers) {
  EXPECT_EQ(nanoseconds(7), 7);
  EXPECT_EQ(microseconds(3), 3'000);
  EXPECT_EQ(milliseconds(2), 2'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
}

TEST(TimeTest, SaturatingAddAbsorbsAtMax) {
  EXPECT_EQ(time_add(kTimeMax, seconds(5)), kTimeMax);
  EXPECT_EQ(time_add(kTimeMax - 10, 100), kTimeMax);
  EXPECT_EQ(time_add(10, 5), 15);
}

TEST(TimeTest, FormatPicksUnits) {
  EXPECT_EQ(format_time(250), "250ns");
  EXPECT_EQ(format_time(1'500), "1.5us");
  EXPECT_EQ(format_time(2'000'000), "2ms");
  EXPECT_EQ(format_time(3'000'000'000), "3s");
  EXPECT_EQ(format_time(kTimeMax), "inf");
  EXPECT_EQ(format_time(-250), "-250ns");
}

// --- value -----------------------------------------------------------------

TEST(ValueTest, Accessors) {
  EXPECT_EQ(as_int(Value{std::int64_t{42}}), 42);
  EXPECT_DOUBLE_EQ(as_double(Value{3.5}), 3.5);
  EXPECT_EQ(as_string(Value{std::string("hi")}), "hi");
}

TEST(ValueTest, AccessorTypeMismatchThrows) {
  EXPECT_THROW(as_int(Value{3.5}), CheckError);
  EXPECT_THROW(as_string(Value{std::int64_t{1}}), CheckError);
  EXPECT_THROW(as_double(Value{}), CheckError);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(to_string(Value{std::int64_t{7}}), "7");
  EXPECT_EQ(to_string(Value{std::string("x")}), "\"x\"");
  EXPECT_EQ(to_string(Value{}), "()");
}

// --- message ---------------------------------------------------------------

// Paper Section 3: all sent messages are unique. Two equal messages are
// offered unnamed; the executor names each when its send is performed.
TEST(MessageTest, UidsAreUnique) {
  const Message m = make_message("UPDATE", {Value{std::int64_t{1}}});
  EXPECT_EQ(m.uid, 0u);
  Executor exec({.horizon = microseconds(10)});
  exec.add_owned(std::make_unique<ScriptMachine>(
      "env", std::vector<ScriptMachine::Step>{
                 {microseconds(1), make_send(0, 1, m)},
                 {microseconds(2), make_send(0, 1, m)}}));
  exec.run();
  ASSERT_EQ(exec.events().size(), 2u);
  const Message& a = *exec.events()[0].action.msg;
  const Message& b = *exec.events()[1].action.msg;
  EXPECT_EQ(a.uid, 1u);
  EXPECT_EQ(b.uid, 2u);
  EXPECT_FALSE(a == b);
}

TEST(MessageTest, EqualityIncludesClockTag) {
  Message a = make_message("M");
  Message b = a;
  EXPECT_TRUE(a == b);
  b.clock_tag = 5;
  EXPECT_FALSE(a == b);
}

TEST(MessageTest, ToStringShowsTag) {
  Message m = make_message("PING");
  EXPECT_EQ(m.clock_tag, kNoClockTag);
  m.clock_tag = 1'500;
  EXPECT_NE(to_string(m).find("@c=1.5us"), std::string::npos);
}

// --- action ----------------------------------------------------------------

TEST(ActionTest, SendRecvConstructors) {
  const Message m = make_message("DATA");
  const Action s = make_send(1, 2, m);
  EXPECT_EQ(s.name, "SENDMSG");
  EXPECT_EQ(s.node, 1);
  EXPECT_EQ(s.peer, 2);
  ASSERT_TRUE(s.msg.has_value());
  EXPECT_EQ(s.msg->uid, m.uid);

  const Action r = make_recv(2, 1, m);
  EXPECT_EQ(r.name, "RECVMSG");
  EXPECT_EQ(r.node, 2);
  EXPECT_EQ(r.peer, 1);
}

TEST(ActionTest, EqualityAndSameKind) {
  const Action a = make_action("READ", 3);
  const Action b = make_action("READ", 3);
  const Action c = make_action("READ", 4);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  Action d = make_action("READ", 3, {Value{std::int64_t{9}}});
  EXPECT_FALSE(a == d);       // args differ
  EXPECT_TRUE(a.same_kind(d));  // but same identity up to parameters
}

TEST(ActionTest, NameMessageNamesOnlyUnnamedMessages) {
  std::uint64_t next = 1;
  Action read = make_action("READ", 0);
  name_message(read, next);  // no message: nothing to name
  Action s = make_send(0, 1, make_message("M"));
  name_message(s, next);
  EXPECT_EQ(s.msg->uid, 1u);
  name_message(s, next);  // a forwarded message keeps its uid
  EXPECT_EQ(s.msg->uid, 1u);
  EXPECT_EQ(next, 2u);
}

TEST(ActionTest, MatchesOfferAcceptsTheNamedOfferOnly) {
  const Action offered = make_send(0, 1, make_message("M"));
  Action performed = offered;
  performed.msg->uid = 7;
  EXPECT_TRUE(matches_offer(offered, performed));
  EXPECT_TRUE(matches_offer(offered, offered));
  EXPECT_TRUE(matches_offer(performed, performed));
  // A named offer must be performed with its own uid.
  Action other = performed;
  other.msg->uid = 8;
  EXPECT_FALSE(matches_offer(performed, other));
  // Any other field still has to agree.
  Action elsewhere = performed;
  elsewhere.peer = 2;
  EXPECT_FALSE(matches_offer(offered, elsewhere));
  Action retagged = performed;
  retagged.msg->clock_tag = 5;
  EXPECT_FALSE(matches_offer(offered, retagged));
}

TEST(ActionTest, ToStringFormat) {
  EXPECT_EQ(to_string(make_action("READ", 2)), "READ_2()");
  const Action w = make_action("WRITE", 0, {Value{std::int64_t{7}}});
  EXPECT_EQ(to_string(w), "WRITE_0(7)");
}

// --- trace -----------------------------------------------------------------

TimedEvent ev(std::string name, int node, Time t, bool visible = true) {
  TimedEvent e;
  e.action = make_action(std::move(name), node);
  e.time = t;
  e.visible = visible;
  return e;
}

TEST(TraceTest, VisibleTraceFiltersHidden) {
  TimedTrace tr{ev("A", 0, 1), ev("B", 0, 2, /*visible=*/false),
                ev("C", 1, 3)};
  const TimedTrace vis = visible_trace(tr);
  ASSERT_EQ(vis.size(), 2u);
  EXPECT_EQ(vis[0].action.name, "A");
  EXPECT_EQ(vis[1].action.name, "C");
}

TEST(TraceTest, ProjectNodeAndName) {
  TimedTrace tr{ev("A", 0, 1), ev("A", 1, 2), ev("B", 0, 3)};
  EXPECT_EQ(project_node(tr, 0).size(), 2u);
  EXPECT_EQ(project_node(tr, 1).size(), 1u);
  EXPECT_EQ(project_name(tr, "A").size(), 2u);
}

TEST(TraceTest, RetimeByClockDropsUnclocked) {
  TimedTrace tr{ev("A", 0, 10), ev("B", 0, 20)};
  tr[0].clock = 12;
  const TimedTrace rc = retime_by_clock(tr);
  ASSERT_EQ(rc.size(), 1u);
  EXPECT_EQ(rc[0].time, 12);
}

TEST(TraceTest, StableSortKeepsEqualTimeOrder) {
  TimedTrace tr{ev("B", 0, 5), ev("A", 0, 5), ev("C", 0, 1)};
  const TimedTrace sorted = stable_sort_by_time(tr);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].action.name, "C");
  EXPECT_EQ(sorted[1].action.name, "B");  // original order among equal times
  EXPECT_EQ(sorted[2].action.name, "A");
  EXPECT_TRUE(is_time_ordered(sorted));
  EXPECT_FALSE(is_time_ordered(tr));
}

TEST(TraceTest, Ltime) {
  EXPECT_EQ(ltime({}), 0);
  EXPECT_EQ(ltime({ev("A", 0, 4), ev("B", 0, 9), ev("C", 0, 2)}), 9);
}

}  // namespace
}  // namespace psc
