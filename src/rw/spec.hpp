// Specifications for read/write objects (Section 6 of the paper):
// operation histories, the alternation condition, linearizability, and
// eps-superlinearizability.
//
// The external interface at node i is
//   inputs  READ_i, WRITE_i(v)      (invocations)
//   outputs RETURN_i(v), ACK_i      (responses)
//
// A timed trace over these actions is *linearizable* iff a linearization
// point can be chosen inside every operation's [invocation, response]
// interval such that each read returns the value of the latest preceding
// write (or the initial value). It is *eps-superlinearizable* (Section 6.2)
// iff the point can additionally be chosen >= invocation + 2 eps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/trace.hpp"

namespace psc {

struct Operation {
  enum class Kind { kRead, kWrite };
  int proc = 0;
  Kind kind = Kind::kRead;
  std::int64_t value = 0;  // value returned (read) or written (write)
  Time inv = 0;
  Time res = 0;
  // Object id for multi-object histories (the paper's full version
  // generalizes Section 6 to other shared objects; see rw/multi.hpp).
  std::int64_t obj = 0;
};

std::string to_string(const Operation& op);

struct History {
  std::vector<Operation> complete;  // invocation matched with response
  std::size_t pending = 0;          // invocations with no response (cut off
                                    // by the horizon; excluded from checks)
};

// Parses READ/RETURN/WRITE/ACK events into operations. Requires the
// alternation condition per node (throws CheckError otherwise; use
// alternation_ok() first for traces that may violate it).
History extract_history(const TimedTrace& trace);

// True iff, at each node, invocations and responses strictly alternate
// starting with an invocation and every response matches the preceding
// invocation's type.
bool alternation_ok(const TimedTrace& trace);

struct LinearizabilityResult {
  bool ok = false;
  bool conclusive = true;       // false if the search hit its state cap
  std::size_t states = 0;       // search states explored
  std::string why;              // diagnosis when !ok
  explicit operator bool() const { return ok && conclusive; }
};

// Wing & Gong backtracking with register semantics, on the search engine
// of rw/wing_gong.hpp that check_linearizable_queue also runs. Sound and
// complete for histories up to the state cap; written values need not be
// unique. Ops are sorted by invocation once; a state with frontier f (the
// first op not yet linearized) only reads the window of ops with
// inv <= res[f], since no other op can be a candidate or hold the minimum
// response. Failed states are memoized per frontier f, exactly on
// (linearized ops in the window, register value), in a small table that f
// allocates on its first failure; a hit compares the whole key, never a
// bare hash. Candidates are tried in `ops` index order, which fixes the
// search and its `states` count. Cost O(states x window), on an explicit
// stack. When no linearization exists, `why` names the op at the deepest
// frontier the search reached.
LinearizabilityResult check_linearizable(const std::vector<Operation>& ops,
                                         std::int64_t v0,
                                         std::size_t max_states = 4'000'000);

// eps-superlinearizability: point in [inv + two_eps, res]. Implemented by
// shrinking every invocation forward by two_eps (an operation whose
// response precedes inv + two_eps makes the history trivially fail).
LinearizabilityResult check_superlinearizable(std::vector<Operation> ops,
                                              std::int64_t v0,
                                              Duration two_eps,
                                              std::size_t max_states =
                                                  4'000'000);

// O(n log n) witness check: verifies that linearizing each op at
// points[k] (same index as ops[k]) is legal — every point inside its
// operation's interval and the induced sequential history register-valid.
// Ties are ordered by (point, writes first, proc id); used by benches on
// large traces where the algorithm's linearization points are known.
LinearizabilityResult check_with_points(const std::vector<Operation>& ops,
                                        const std::vector<Time>& points,
                                        std::int64_t v0);

// Per-operation latency samples (res - inv), split by kind.
std::vector<Duration> latencies(const std::vector<Operation>& ops,
                                Operation::Kind kind);

// Multi-object linearizability: registers are independent, so a history is
// linearizable iff each object's sub-history is (checked per object).
LinearizabilityResult check_linearizable_multi(
    const std::vector<Operation>& ops, std::int64_t v0,
    std::size_t max_states = 4'000'000);

}  // namespace psc
