// Tests for the read/write object specifications: history extraction,
// alternation, the linearizability / superlinearizability checkers, and the
// witness checker.
#include <gtest/gtest.h>

#include "rw/spec.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

using Kind = Operation::Kind;

Operation rd(int proc, std::int64_t v, Time inv, Time res) {
  return {proc, Kind::kRead, v, inv, res};
}
Operation wr(int proc, std::int64_t v, Time inv, Time res) {
  return {proc, Kind::kWrite, v, inv, res};
}

// --- alternation & extraction ------------------------------------------------

TimedEvent ev(std::string name, int node, Time t,
              std::vector<Value> args = {}) {
  TimedEvent e;
  e.action = make_action(std::move(name), node, std::move(args));
  e.time = t;
  return e;
}

TEST(AlternationTest, WellFormedTraceAccepted) {
  TimedTrace tr{ev("READ", 0, 1), ev("RETURN", 0, 2, {Value{std::int64_t{0}}}),
                ev("WRITE", 0, 3, {Value{std::int64_t{9}}}), ev("ACK", 0, 4)};
  EXPECT_TRUE(alternation_ok(tr));
}

TEST(AlternationTest, DoubleInvocationRejected) {
  TimedTrace tr{ev("READ", 0, 1), ev("READ", 0, 2)};
  EXPECT_FALSE(alternation_ok(tr));
}

TEST(AlternationTest, ResponseWithoutInvocationRejected) {
  TimedTrace tr{ev("ACK", 0, 1)};
  EXPECT_FALSE(alternation_ok(tr));
}

TEST(AlternationTest, MismatchedResponseRejected) {
  TimedTrace tr{ev("READ", 0, 1), ev("ACK", 0, 2)};
  EXPECT_FALSE(alternation_ok(tr));
}

TEST(AlternationTest, NodesAreIndependent) {
  TimedTrace tr{ev("READ", 0, 1), ev("WRITE", 1, 2, {Value{std::int64_t{5}}}),
                ev("RETURN", 0, 3, {Value{std::int64_t{0}}}), ev("ACK", 1, 4)};
  EXPECT_TRUE(alternation_ok(tr));
}

TEST(HistoryTest, ExtractsOperationsWithTimes) {
  TimedTrace tr{ev("WRITE", 1, 2, {Value{std::int64_t{5}}}), ev("ACK", 1, 6),
                ev("READ", 0, 7),
                ev("RETURN", 0, 9, {Value{std::int64_t{5}}})};
  const History h = extract_history(tr);
  ASSERT_EQ(h.complete.size(), 2u);
  EXPECT_EQ(h.pending, 0u);
  EXPECT_EQ(h.complete[0].kind, Kind::kWrite);
  EXPECT_EQ(h.complete[0].value, 5);
  EXPECT_EQ(h.complete[0].inv, 2);
  EXPECT_EQ(h.complete[0].res, 6);
  EXPECT_EQ(h.complete[1].kind, Kind::kRead);
  EXPECT_EQ(h.complete[1].value, 5);
}

TEST(HistoryTest, PendingInvocationCounted) {
  TimedTrace tr{ev("READ", 0, 1)};
  const History h = extract_history(tr);
  EXPECT_EQ(h.complete.size(), 0u);
  EXPECT_EQ(h.pending, 1u);
}

TEST(HistoryTest, IllFormedTraceThrows) {
  TimedTrace tr{ev("READ", 0, 1), ev("READ", 0, 2)};
  EXPECT_THROW(extract_history(tr), CheckError);
}

// --- linearizability checker -------------------------------------------------

TEST(LinCheckTest, EmptyAndTrivialHistories) {
  EXPECT_TRUE(check_linearizable({}, 0));
  EXPECT_TRUE(check_linearizable({rd(0, 0, 1, 2)}, 0));
  EXPECT_FALSE(check_linearizable({rd(0, 7, 1, 2)}, 0));  // reads nothing
}

TEST(LinCheckTest, SequentialReadAfterWrite) {
  EXPECT_TRUE(check_linearizable({wr(0, 5, 1, 2), rd(1, 5, 3, 4)}, 0));
  EXPECT_FALSE(check_linearizable({wr(0, 5, 1, 2), rd(1, 0, 3, 4)}, 0));
}

TEST(LinCheckTest, ConcurrentReadMayGoEitherWay) {
  // Read overlaps the write: both old and new value are legal.
  EXPECT_TRUE(check_linearizable({wr(0, 5, 10, 20), rd(1, 0, 12, 18)}, 0));
  EXPECT_TRUE(check_linearizable({wr(0, 5, 10, 20), rd(1, 5, 12, 18)}, 0));
}

TEST(LinCheckTest, NewOldInversionRejected) {
  // r1 after w returns new value; r2 entirely after r1 returns old value:
  // classic non-linearizable new/old inversion.
  EXPECT_FALSE(check_linearizable(
      {wr(0, 5, 10, 20), rd(1, 5, 12, 14), rd(1, 0, 15, 17)}, 0));
}

TEST(LinCheckTest, WriteOrderForcedByRealTime) {
  // w(1) finishes before w(2) starts; a later read must not see 1.
  EXPECT_FALSE(check_linearizable(
      {wr(0, 1, 0, 5), wr(0, 2, 10, 15), rd(1, 1, 20, 25)}, 0));
  EXPECT_TRUE(check_linearizable(
      {wr(0, 1, 0, 5), wr(0, 2, 10, 15), rd(1, 2, 20, 25)}, 0));
}

TEST(LinCheckTest, ConcurrentWritesAdmitBothOrders) {
  EXPECT_TRUE(check_linearizable(
      {wr(0, 1, 0, 10), wr(1, 2, 0, 10), rd(2, 1, 20, 25)}, 0));
  EXPECT_TRUE(check_linearizable(
      {wr(0, 1, 0, 10), wr(1, 2, 0, 10), rd(2, 2, 20, 25)}, 0));
}

TEST(LinCheckTest, ReadsFromBothConcurrentWritesInconsistentOrderRejected) {
  // Two sequential reads seeing w1 then w2 then w1 again is illegal.
  EXPECT_FALSE(check_linearizable({wr(0, 1, 0, 10), wr(1, 2, 0, 10),
                                   rd(2, 1, 20, 21), rd(2, 2, 22, 23),
                                   rd(2, 1, 24, 25)},
                                  0));
}

TEST(LinCheckTest, InvAfterResRejected) {
  EXPECT_FALSE(check_linearizable({rd(0, 0, 5, 3)}, 0).ok);
}

TEST(LinCheckTest, DuplicateValuesSupported) {
  // Non-unique written values: two writes of 7 — checker must still work.
  EXPECT_TRUE(check_linearizable(
      {wr(0, 7, 0, 1), wr(1, 7, 2, 3), rd(2, 7, 4, 5)}, 0));
}

TEST(LinCheckTest, LongChainIsFast) {
  // 60 sequential ops: memoized search must handle this instantly.
  std::vector<Operation> ops;
  Time t = 0;
  for (int k = 0; k < 30; ++k) {
    ops.push_back(wr(0, k + 1, t, t + 1));
    ops.push_back(rd(1, k + 1, t + 2, t + 3));
    t += 4;
  }
  const auto r = check_linearizable(ops, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.conclusive);
}

TEST(LinCheckTest, HugeChainIsIterative) {
  // 200,000 sequential ops: the search is as deep as the history, so it
  // must not recurse per linearized op (this also runs under ASan).
  std::vector<Operation> ops;
  Time t = 0;
  for (int k = 0; k < 100'000; ++k) {
    ops.push_back(wr(0, k + 1, t, t + 1));
    ops.push_back(rd(1, k + 1, t + 2, t + 3));
    t += 4;
  }
  const auto r = check_linearizable(ops, 0);
  EXPECT_TRUE(r.ok) << r.why;
  EXPECT_TRUE(r.conclusive);
  EXPECT_EQ(r.states, ops.size());
}

TEST(LinCheckTest, StateCapReportsInconclusive) {
  // Many fully concurrent writes + an impossible read forces the search to
  // exhaust; with a tiny cap it must report inconclusive rather than "no".
  std::vector<Operation> ops;
  for (int k = 0; k < 12; ++k) ops.push_back(wr(k, k + 1, 0, 100));
  ops.push_back(rd(0, 999, 200, 201));  // value never written
  const auto r = check_linearizable(ops, 0, /*max_states=*/50);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.conclusive);
}

// --- superlinearizability ------------------------------------------------------

TEST(SuperLinTest, RequiresPointAfterInvPlusTwoEps) {
  // Write [0,10], read [11,12] of the written value: linearizable, and
  // superlinearizable iff both points can sit 2eps after their invocations.
  std::vector<Operation> ops{wr(0, 5, 0, 10), rd(1, 5, 11, 12)};
  EXPECT_TRUE(check_superlinearizable(ops, 0, /*two_eps=*/1));
  // two_eps = 2 makes the read's shrunken interval [13,12] empty.
  EXPECT_FALSE(check_superlinearizable(ops, 0, /*two_eps=*/2));
}

TEST(SuperLinTest, ShrinkingCanForbidOtherwiseLegalOrder) {
  // Read [0,3] must linearize before write [2,10] to return v0. With
  // two_eps=2 the read's point is in [2,3] and the write's in [4,10]: still
  // fine. With the read returning the written value instead, point order
  // write-then-read requires write point <= read point: write in [4,10],
  // read in [2,3] — impossible.
  EXPECT_TRUE(check_superlinearizable({wr(0, 5, 2, 10), rd(1, 0, 0, 3)}, 0,
                                      2));
  EXPECT_FALSE(check_superlinearizable({wr(0, 5, 2, 10), rd(1, 5, 0, 3)}, 0,
                                       2));
  // Plain linearizability allows it (points: write at 2, read at 3).
  EXPECT_TRUE(check_linearizable({wr(0, 5, 2, 10), rd(1, 5, 0, 3)}, 0));
}

TEST(SuperLinTest, ZeroEpsEqualsPlainLinearizability) {
  std::vector<Operation> ops{wr(0, 5, 10, 20), rd(1, 5, 12, 18)};
  EXPECT_EQ(check_superlinearizable(ops, 0, 0).ok,
            check_linearizable(ops, 0).ok);
}

// --- witness checker -----------------------------------------------------------

TEST(WitnessCheckTest, AcceptsValidPoints) {
  std::vector<Operation> ops{wr(0, 5, 0, 10), rd(1, 5, 8, 12)};
  EXPECT_TRUE(check_with_points(ops, {5, 11}, 0));
}

TEST(WitnessCheckTest, RejectsPointOutsideInterval) {
  std::vector<Operation> ops{wr(0, 5, 0, 10)};
  EXPECT_FALSE(check_with_points(ops, {11}, 0));
  EXPECT_FALSE(check_with_points(ops, {-1}, 0));
}

TEST(WitnessCheckTest, RejectsIllegalSequentialSemantics) {
  std::vector<Operation> ops{wr(0, 5, 0, 10), rd(1, 0, 8, 12)};
  // Read point after write point but read returns v0: illegal.
  EXPECT_FALSE(check_with_points(ops, {5, 11}, 0));
  // Read point before write point: legal.
  EXPECT_TRUE(check_with_points(ops, {9, 8}, 0));
}

TEST(WitnessCheckTest, TieBreakWritesFirst) {
  std::vector<Operation> ops{wr(0, 5, 0, 10), rd(1, 5, 0, 10)};
  EXPECT_TRUE(check_with_points(ops, {5, 5}, 0));
}

TEST(WitnessCheckTest, SizeMismatchThrows) {
  EXPECT_THROW(check_with_points({wr(0, 5, 0, 10)}, {1, 2}, 0), CheckError);
}

// --- latencies -------------------------------------------------------------------

TEST(LatencyTest, SplitsByKind) {
  std::vector<Operation> ops{wr(0, 1, 0, 7), rd(0, 1, 10, 12), wr(0, 2, 20, 29)};
  const auto w = latencies(ops, Kind::kWrite);
  const auto r = latencies(ops, Kind::kRead);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 7);
  EXPECT_EQ(w[1], 9);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], 2);
}

}  // namespace
}  // namespace psc
