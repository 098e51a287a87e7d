// Cross-validation of the linearizability checkers on randomly generated
// histories: histories built from a hidden sequential execution (with the
// generating points as ground truth) must be accepted by both the
// Wing-Gong search and the witness checker; corrupted variants must be
// rejected by both. A brute-force oracle that tries every order of small
// histories must agree with the Wing-Gong search on register and queue
// histories, and the search's state counts on fixed histories are pinned.
// Also scale smoke: a 10-node register system run stays checkable.
#include <gtest/gtest.h>

#include <algorithm>

#include "rw/harness.hpp"
#include "rw/queue.hpp"
#include "util/rng.hpp"

namespace psc {
namespace {

struct GeneratedHistory {
  std::vector<Operation> ops;
  std::vector<Time> points;  // the hidden linearization points
};

// Builds a history from a random sequential register execution: op k takes
// effect at point p_k (strictly increasing); its interval extends up to
// `fuzz` on both sides (clamped so intervals still contain their point).
GeneratedHistory random_register_history(int n, Duration fuzz, Rng& rng) {
  GeneratedHistory h;
  Time p = 10;
  std::int64_t reg = 0;
  for (int k = 0; k < n; ++k) {
    p += 1 + rng.uniform(0, fuzz);
    Operation op;
    op.proc = static_cast<int>(rng.index(4));
    op.inv = std::max<Time>(0, p - rng.uniform(0, fuzz));
    op.res = p + rng.uniform(0, fuzz);
    if (rng.flip(0.5)) {
      op.kind = Operation::Kind::kWrite;
      op.value = k + 1000;
      reg = op.value;
    } else {
      op.kind = Operation::Kind::kRead;
      op.value = reg;
    }
    h.ops.push_back(op);
    h.points.push_back(p);
  }
  return h;
}

class CheckerCross : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckerCross, GeneratedHistoriesAcceptedByBothCheckers) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    const auto h = random_register_history(24, 40, rng);
    EXPECT_TRUE(check_with_points(h.ops, h.points, 0));
    const auto wg = check_linearizable(h.ops, 0);
    EXPECT_TRUE(wg.ok) << "round " << round << ": " << wg.why;
  }
}

TEST_P(CheckerCross, CorruptedReadRejectedByBothCheckers) {
  Rng rng(GetParam() ^ 0xbad);
  for (int round = 0; round < 10; ++round) {
    auto h = random_register_history(24, 40, rng);
    // Find a read and corrupt it to a value that is never written.
    const Operation* corrupted = nullptr;
    for (auto& op : h.ops) {
      if (op.kind == Operation::Kind::kRead) {
        op.value = -777;
        corrupted = &op;
        break;
      }
    }
    if (corrupted == nullptr) continue;
    EXPECT_FALSE(check_with_points(h.ops, h.points, 0).ok);
    const auto wg = check_linearizable(h.ops, 0);
    EXPECT_FALSE(wg.ok);
    EXPECT_TRUE(wg.conclusive);
    // The search never gets past the corrupted read, so the deepest
    // frontier it reports is that read.
    EXPECT_NE(wg.why.find(to_string(*corrupted)), std::string::npos)
        << "round " << round << ": " << wg.why;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerCross,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// The same construction for the FIFO queue checker.
std::vector<QueueOp> random_queue_history(int n, Duration fuzz, Rng& rng) {
  std::vector<QueueOp> ops;
  std::deque<std::int64_t> q;
  Time p = 10;
  for (int k = 0; k < n; ++k) {
    p += 1 + rng.uniform(0, fuzz);
    QueueOp op;
    op.proc = static_cast<int>(rng.index(4));
    op.inv = std::max<Time>(0, p - rng.uniform(0, fuzz));
    op.res = p + rng.uniform(0, fuzz);
    if (rng.flip(0.5)) {
      op.kind = QueueOp::Kind::kEnq;
      op.value = k + 1000;
      q.push_back(op.value);
    } else {
      op.kind = QueueOp::Kind::kDeq;
      if (q.empty()) {
        op.value = -1;
      } else {
        op.value = q.front();
        q.pop_front();
      }
    }
    ops.push_back(op);
  }
  return ops;
}

TEST_P(CheckerCross, GeneratedQueueHistoriesAccepted) {
  Rng rng(GetParam() ^ 0x9ece);
  for (int round = 0; round < 10; ++round) {
    const auto ops = random_queue_history(20, 40, rng);
    const auto r = check_linearizable_queue(ops);
    EXPECT_TRUE(r.ok) << "round " << round << ": " << r.why;
  }
}

TEST_P(CheckerCross, CorruptedDequeueRejected) {
  Rng rng(GetParam() ^ 0xdead);
  for (int round = 0; round < 10; ++round) {
    auto ops = random_queue_history(20, 40, rng);
    bool corrupted = false;
    for (auto& op : ops) {
      if (op.kind == QueueOp::Kind::kDeq && op.value >= 0) {
        op.value = -777;
        corrupted = true;
        break;
      }
    }
    if (!corrupted) continue;
    EXPECT_FALSE(check_linearizable_queue(ops).ok);
  }
}

// --- brute-force oracle --------------------------------------------------------

// Decides linearizability of a small history (n <= 7) by trying every
// order of its ops: an order is legal iff it never puts an op before one
// whose response strictly precedes its invocation, and `legal_sequence`
// accepts it.
template <class Op, class Legal>
bool brute_force_linearizable(const std::vector<Op>& ops,
                              Legal legal_sequence) {
  std::vector<std::size_t> perm(ops.size());
  for (std::size_t k = 0; k < perm.size(); ++k) perm[k] = k;
  do {
    bool real_time = true;
    for (std::size_t i = 0; i < perm.size() && real_time; ++i) {
      for (std::size_t j = i + 1; j < perm.size() && real_time; ++j) {
        real_time = !(ops[perm[j]].res < ops[perm[i]].inv);
      }
    }
    if (real_time && legal_sequence(perm)) return true;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

template <class Op>
void shuffle(std::vector<Op>& ops, Rng& rng) {
  for (std::size_t k = ops.size(); k > 1; --k) {
    std::swap(ops[k - 1], ops[rng.index(k)]);
  }
}

// Small histories on a coarse time grid (so inv/res timestamps tie), with
// values drawn from {1, 2} (so values are written or enqueued more than
// once), built from a hidden sequential run and shuffled out of time
// order. The tests corrupt a read or dequeue in about half the rounds.
template <class Op, class Make>
std::vector<Op> small_history(Rng& rng, Make make) {
  const int n = static_cast<int>(rng.uniform(1, 7));
  std::vector<Op> ops;
  Time p = 0;
  for (int k = 0; k < n; ++k) {
    p += rng.uniform(0, 2);
    Op op = make(rng);
    op.proc = static_cast<int>(rng.index(3));
    op.inv = std::max<Time>(0, p - rng.uniform(0, 3));
    op.res = p + rng.uniform(0, 3);
    ops.push_back(op);
  }
  shuffle(ops, rng);
  return ops;
}

TEST(CheckerOracle, RegisterAgreesWithBruteForce) {
  Rng rng(0x0c1e);
  int accepted = 0, rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    std::int64_t reg = 0;
    auto ops = small_history<Operation>(rng, [&](Rng& r) {
      Operation op;
      if (r.flip(0.5)) {
        op.kind = Operation::Kind::kWrite;
        op.value = r.uniform(1, 2);
        reg = op.value;
      } else {
        op.kind = Operation::Kind::kRead;
        op.value = reg;
      }
      return op;
    });
    if (rng.flip(0.5)) {
      auto& op = ops[rng.index(ops.size())];
      if (op.kind == Operation::Kind::kRead) op.value = rng.uniform(0, 3);
    }
    const bool oracle = brute_force_linearizable(
        ops, [&](const std::vector<std::size_t>& order) {
          std::int64_t value = 0;
          for (const std::size_t k : order) {
            if (ops[k].kind == Operation::Kind::kWrite) {
              value = ops[k].value;
            } else if (ops[k].value != value) {
              return false;
            }
          }
          return true;
        });
    const auto wg = check_linearizable(ops, 0);
    ASSERT_TRUE(wg.conclusive);
    ASSERT_EQ(wg.ok, oracle) << "round " << round;
    (oracle ? accepted : rejected)++;
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(CheckerOracle, QueueAgreesWithBruteForce) {
  Rng rng(0xf1f0);
  int accepted = 0, rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    std::deque<std::int64_t> q;
    auto ops = small_history<QueueOp>(rng, [&](Rng& r) {
      QueueOp op;
      if (r.flip(0.5)) {
        op.kind = QueueOp::Kind::kEnq;
        op.value = r.uniform(1, 2);
        q.push_back(op.value);
      } else {
        op.kind = QueueOp::Kind::kDeq;
        op.value = -1;
        if (!q.empty()) {
          op.value = q.front();
          q.pop_front();
        }
      }
      return op;
    });
    if (rng.flip(0.5)) {
      auto& op = ops[rng.index(ops.size())];
      if (op.kind == QueueOp::Kind::kDeq) op.value = rng.uniform(-1, 3);
    }
    const bool oracle = brute_force_linearizable(
        ops, [&](const std::vector<std::size_t>& order) {
          std::deque<std::int64_t> fifo;
          for (const std::size_t k : order) {
            if (ops[k].kind == QueueOp::Kind::kEnq) {
              fifo.push_back(ops[k].value);
            } else if (fifo.empty()) {
              if (ops[k].value != -1) return false;
            } else {
              if (ops[k].value != fifo.front()) return false;
              fifo.pop_front();
            }
          }
          return true;
        });
    const auto r = check_linearizable_queue(ops);
    ASSERT_TRUE(r.conclusive);
    ASSERT_EQ(r.ok, oracle) << "round " << round;
    (oracle ? accepted : rejected)++;
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

// The search's order is part of its contract: `states` on fixed histories
// is pinned, so a change in DFS order fails here, not only in a benchmark.
TEST(CheckerOracle, StateCountsArePinned) {
  const std::size_t register_states[] = {920, 646, 931};
  const std::size_t queue_states[] = {8137, 27968, 1835};
  // Shuffled, so the index order the search tries candidates in is not the
  // generating order and the search has to backtrack.
  for (int k = 0; k < 3; ++k) {
    Rng rng(100 + k);
    auto h = random_register_history(400, 300, rng);
    shuffle(h.ops, rng);
    const auto wg = check_linearizable(h.ops, 0);
    EXPECT_TRUE(wg.ok) << wg.why;
    EXPECT_EQ(wg.states, register_states[k]) << "history " << k;
    auto ops = random_queue_history(120, 300, rng);
    shuffle(ops, rng);
    const auto q = check_linearizable_queue(ops);
    EXPECT_TRUE(q.ok) << q.why;
    EXPECT_EQ(q.states, queue_states[k]) << "history " << k;
  }
}

// The history of bench_framework's BM_WingGongConcurrent/rw_clock_reads:
// `procs` closed-loop clients of `per_proc` ops, 20% writes among reads,
// values from linearizing each op at a random point inside its interval,
// listed client by client so the search backtracks and fills its memo.
std::vector<Operation> clock_reads_history(int procs, int per_proc) {
  Rng rng(7);
  std::vector<Operation> ops;
  std::vector<Time> points;
  for (int p = 0; p < procs; ++p) {
    Time t = rng.uniform(0, 200);
    for (int k = 0; k < per_proc; ++k) {
      const bool write = rng.flip(0.2);
      const Time res = t + (write ? 400 : 150) + rng.uniform(0, 20);
      ops.push_back({p, write ? Operation::Kind::kWrite
                              : Operation::Kind::kRead,
                     write ? (std::int64_t{p} << 32) | k : 0, t, res});
      points.push_back(rng.uniform(t, res));
      t = res + rng.uniform(0, 200);
    }
  }
  std::vector<std::size_t> order(ops.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return points[a] < points[b];
  });
  std::int64_t value = 0;
  for (const std::size_t k : order) {
    if (ops[k].kind == Operation::Kind::kWrite) {
      value = ops[k].value;
    } else {
      ops[k].value = value;
    }
  }
  return ops;
}

// A memo that drops, merges or misfiles failed states changes how many
// states the search enters. Pin that count on a history whose search
// records a failure in more than half its states: as generated (accepted),
// and with one read (client 0's 101st op) corrupted to a value no write
// produced (rejected at that read).
TEST(CheckerOracle, MemoHeavyHistoryIsPinned) {
  auto ops = clock_reads_history(8, 1024);
  const auto wg = check_linearizable(ops, 0);
  EXPECT_TRUE(wg.ok) << wg.why;
  EXPECT_EQ(wg.states, 84883u);
  Operation& read = ops[100];
  ASSERT_EQ(read.kind, Operation::Kind::kRead);
  read.value = -777;
  const auto bad = check_linearizable(ops, 0);
  EXPECT_FALSE(bad.ok);
  EXPECT_TRUE(bad.conclusive);
  EXPECT_EQ(bad.states, 44684u);
  EXPECT_EQ(bad.why,
            "no legal linearization exists; the deepest frontier stops at "
            "R0(-777)[29.997us,30.162us]");
}

// k mutually concurrent writes of distinct values, then a read of a value
// none wrote: every set of linearized writes fails, and frontier 0 alone
// records 2,305 (k = 10) and 11,265 (k = 12) failed states, so its memo
// table grows from 8 slots to 8,192 and 32,768.
TEST(CheckerOracle, ManyFailuresAtOneFrontier) {
  const std::size_t states[] = {23051, 135181};
  const int writes[] = {10, 12};
  for (int k = 0; k < 2; ++k) {
    std::vector<Operation> ops;
    for (int w = 0; w < writes[k]; ++w) {
      ops.push_back({w, Operation::Kind::kWrite, w + 1, 0, 100});
    }
    ops.push_back({0, Operation::Kind::kRead, 999, 200, 201});
    const auto r = check_linearizable(ops, 0);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.conclusive);
    EXPECT_EQ(r.states, states[k]) << writes[k] << " writes";
    EXPECT_EQ(r.why,
              "no legal linearization exists; the deepest frontier stops at "
              "R0(999)[200ns,201ns]");
  }
}

// --- scale smoke ---------------------------------------------------------------

TEST(ScaleTest, TenNodeRegisterSystemChecksOut) {
  RwRunConfig cfg;
  cfg.num_nodes = 10;
  cfg.d1 = microseconds(20);
  cfg.d2 = microseconds(300);
  cfg.eps = microseconds(40);
  cfg.c = microseconds(30);
  cfg.ops_per_node = 6;
  cfg.think_max = microseconds(500);
  cfg.horizon = seconds(10);
  ZigzagDrift drift(0.3);
  const auto run = run_rw_clock(cfg, drift);
  ASSERT_EQ(run.ops.size(), 60u);
  const auto lin = check_linearizable(run.ops, cfg.v0);
  EXPECT_TRUE(lin.ok && lin.conclusive) << lin.why;
}

}  // namespace
}  // namespace psc
