// The one Wing & Gong linearizability search behind check_linearizable
// (register, rw/spec.hpp) and check_linearizable_queue (FIFO, rw/queue.hpp).
//
// The search is a depth-first walk over (set of linearized ops, object
// state): an op may be linearized next iff its invocation is <= the
// smallest response among the remaining ops and the sequential object
// accepts it; failed states are memoized.
//
// Window. Ops are stable-sorted by invocation once; the frontier f is the
// first position not yet linearized. Every remaining op lies at or past f,
// and min_res <= res[f], so an op with inv > res[f] is neither a candidate
// nor the minimum response. Every linearized op past f was a candidate while
// f was still remaining, so it too has inv <= res[f]. Each state therefore
// reads only the window [f, reach[f]) of positions with inv <= res[f].
//
// Memo key. (f, which window positions past f are linearized, object
// state) names exactly the same (set, state) pair as a full n-bit mask, in
// O(window) bytes: window length is a function of f. Keys are stored and
// compared whole; a hash alone never prunes.
//
// Same DFS. Candidates are tried in the caller's index order, so the walk,
// and the `states` count it reports, is the one a scan over all n ops in
// index order would make. Cost: O(states x window), on an explicit stack
// (no recursion as deep as the history).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "rw/spec.hpp"

namespace psc {

// `Object` is the sequential specification:
//   using Op = ...;  // has `inv`, `res`; `to_string(op)` names it
//   bool step(const Op&, std::int64_t& undo);  // legal here? apply it
//   void undo(const Op&, std::int64_t undo);   // revert a successful step
//   void append_key(std::string&) const;       // exact state encoding
template <class Object>
LinearizabilityResult wing_gong(const std::vector<typename Object::Op>& ops,
                                Object object, std::size_t max_states) {
  for (const auto& op : ops) {
    if (op.inv > op.res) {
      return {false, true, 0, "operation with inv > res: " + to_string(op)};
    }
  }
  // Positions: ops sorted by invocation, ties in index order.
  struct Pos {
    std::size_t index;  // into `ops`
    Time inv, res;
    std::size_t reach = 0;  // first position with inv > res
    bool done = false;
  };
  const std::size_t n = ops.size();
  std::vector<Pos> pos;
  pos.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    pos.push_back({k, ops[k].inv, ops[k].res});
  }
  std::sort(pos.begin(), pos.end(), [](const Pos& a, const Pos& b) {
    return a.inv != b.inv ? a.inv < b.inv : a.index < b.index;
  });
  for (auto& p : pos) {
    p.reach = static_cast<std::size_t>(
        std::upper_bound(pos.begin(), pos.end(), p.res,
                         [](Time t, const Pos& q) { return t < q.inv; }) -
        pos.begin());
  }

  // Exact memo key of the current state; see the header comment.
  std::size_t f = 0;
  std::string key;
  const auto make_key = [&] {
    key.assign(reinterpret_cast<const char*>(&f), sizeof(f));
    unsigned char bits = 0;
    for (std::size_t p = f; p < pos[f].reach; ++p) {
      if (pos[p].done) bits |= static_cast<unsigned char>(1u << ((p - f) % 8));
      if ((p - f) % 8 == 7 || p + 1 == pos[f].reach) {
        key.push_back(static_cast<char>(bits));
        bits = 0;
      }
    }
    object.append_key(key);
  };

  struct Frame {
    std::size_t frontier;   // f on entry
    std::size_t next, end;  // untried candidates: cands[next, end)
    std::size_t taken;      // position linearized into the child (n = none)
    std::int64_t undo = 0;
  };
  std::vector<Frame> stack;        // one frame per linearized op: <= n
  std::vector<std::size_t> cands;  // every frame's candidates, stacked
  stack.reserve(n);
  cands.reserve(n);
  std::unordered_set<std::string> failed;
  std::size_t deepest = 0;
  LinearizabilityResult r;
  for (;;) {
    // Enter the state (linearized positions, f, object).
    if (f == n) {
      r.ok = true;
      break;
    }
    if (++r.states > max_states) {
      r.conclusive = false;
      r.why = "state cap reached (inconclusive)";
      return r;
    }
    deepest = std::max(deepest, f);
    make_key();
    if (!failed.count(key)) {
      Time min_res = kTimeMax;
      for (std::size_t p = f; p < pos[f].reach; ++p) {
        if (!pos[p].done) min_res = std::min(min_res, pos[p].res);
      }
      const std::size_t first = cands.size();
      for (std::size_t p = f; p < pos[f].reach && pos[p].inv <= min_res;
           ++p) {
        if (!pos[p].done) cands.push_back(p);
      }
      std::sort(cands.begin() + static_cast<std::ptrdiff_t>(first),
                cands.end(), [&](std::size_t a, std::size_t b) {
                  return pos[a].index < pos[b].index;
                });
      stack.push_back({f, first, cands.size(), n});
    }
    // Step into the next untried candidate, backtracking as frames run out.
    bool entered = false;
    while (!entered && !stack.empty()) {
      Frame& top = stack.back();
      if (top.taken < n) {
        object.undo(ops[pos[top.taken].index], top.undo);
        pos[top.taken].done = false;
        f = top.frontier;
        top.taken = n;
      }
      while (top.next < top.end) {
        const std::size_t p = cands[top.next++];
        if (!object.step(ops[pos[p].index], top.undo)) continue;
        top.taken = p;
        pos[p].done = true;
        while (f < n && pos[f].done) ++f;
        entered = true;
        break;
      }
      if (entered) break;
      make_key();  // every step of this frame is undone: its state is back
      failed.insert(key);
      stack.pop_back();
      cands.resize(stack.empty() ? 0 : stack.back().end);
    }
    if (!entered) {
      r.why = "no legal linearization exists; the deepest frontier stops at " +
              to_string(ops[pos[deepest].index]);
      break;
    }
  }
  return r;
}

}  // namespace psc
