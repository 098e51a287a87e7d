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
// Memo. Failed states are kept per frontier (FrontierMemo): the key (which
// window positions past f are linearized, object state) names, together
// with f, exactly the same (set, state) pair as a full n-bit mask, in
// O(window) bytes, and every key of one frontier has the same window
// length. The DFS lingers near one frontier, so that frontier's small table
// stays in cache, and a state whose frontier never failed is looked up
// without building its key. Keys are stored and compared whole; a hash
// alone never prunes.
//
// Same DFS. Candidates are tried in the caller's index order, so the walk,
// and the `states` count it reports, is the one a scan over all n ops in
// index order would make. Cost: O(states x window), on an explicit stack
// (no recursion as deep as the history).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rw/spec.hpp"

namespace psc {

// The failed states of one Wing & Gong search, grouped by frontier. A
// frontier's table is allocated when it records its first failure, holds a
// power-of-two number of 16-byte slots and doubles at half load, so probes
// stay short however many failures one frontier collects. Key bytes live in
// one append-only arena; a slot keeps the key's size and arena offset plus
// 32 hash bits as a tag, which also picks the slot's home (so growing moves
// slots without rehashing keys). A hit is confirmed by comparing the whole
// key. Keys are never empty (the window holds at least one position).
class FrontierMemo {
 public:
  explicit FrontierMemo(std::size_t frontiers) : tables_(frontiers) {}

  // True iff the key `make_key()` returns is recorded at frontier f. The key
  // is built only when f has recorded a failure.
  template <class MakeKey>
  bool contains(std::size_t f, const MakeKey& make_key) const {
    const Table& t = tables_[f];
    if (t.used == 0) return false;
    const std::string_view key = make_key();
    const std::uint32_t h = tag(key);
    for (std::uint32_t i = h & t.mask;; i = (i + 1) & t.mask) {
      const Slot& s = t.slots[i];
      if (s.size == 0) return false;
      if (s.tag == h && s.size == key.size() &&
          std::memcmp(arena_.data() + s.at, key.data(), key.size()) == 0) {
        return true;
      }
    }
  }

  // Records `key` at frontier f; the key must not be recorded there yet.
  void insert(std::size_t f, std::string_view key) {
    Table& t = tables_[f];
    if (2 * (std::size_t{t.used} + 1) > std::size_t{t.mask} + 1) grow(t);
    place(t, {tag(key), static_cast<std::uint32_t>(key.size()), arena_.size()});
    arena_.append(key);
    ++t.used;
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t size = 0;  // 0: empty
    std::size_t at = 0;      // key offset in the arena
  };
  struct Table {
    std::unique_ptr<Slot[]> slots;
    std::uint32_t mask = 0;  // capacity - 1
    std::uint32_t used = 0;
  };
  static constexpr std::uint32_t kFirstCapacity = 8;

  static std::uint32_t tag(std::string_view key) {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(key) >>
                                      32);
  }
  // Puts `slot` in the first free slot from its home on.
  static void place(Table& t, const Slot& slot) {
    std::uint32_t i = slot.tag & t.mask;
    while (t.slots[i].size != 0) i = (i + 1) & t.mask;
    t.slots[i] = slot;
  }
  static void grow(Table& t) {
    const std::size_t old = t.used == 0 ? 0 : std::size_t{t.mask} + 1;
    Table bigger;
    bigger.mask = static_cast<std::uint32_t>(
        (old == 0 ? kFirstCapacity : 2 * old) - 1);
    bigger.slots = std::make_unique<Slot[]>(std::size_t{bigger.mask} + 1);
    bigger.used = t.used;
    for (std::size_t i = 0; i < old; ++i) {
      if (t.slots[i].size != 0) place(bigger, t.slots[i]);
    }
    t = std::move(bigger);
  }

  std::vector<Table> tables_;  // one per frontier
  std::string arena_;
};

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

  // Linearized positions, one bit each (a spare word past the end lets a
  // window read two words unguarded).
  std::vector<std::uint64_t> done(n / 64 + 2);
  const auto is_done = [&](std::size_t p) {
    return (done[p / 64] >> (p % 64) & 1) != 0;
  };
  const auto flip_done = [&](std::size_t p) {
    done[p / 64] ^= std::uint64_t{1} << (p % 64);
  };

  // Exact memo key of the current state at its frontier f: the window's
  // bits, a byte per 8 positions (bits past the window are 0, as no
  // position there is linearized), then the object state.
  std::size_t f = 0;
  std::string key;
  const auto make_key = [&] {
    key.clear();
    const std::size_t w = pos[f].reach - f;
    for (std::size_t b = 0; b < w; b += 64) {
      const std::size_t i = (f + b) / 64, s = (f + b) % 64;
      std::uint64_t word = done[i] >> s;
      if (s != 0) word |= done[i + 1] << (64 - s);
      for (std::size_t k = 0; k < 64 && b + k < w; k += 8) {
        key.push_back(static_cast<char>(word >> k));
      }
    }
    object.append_key(key);
    return std::string_view(key);
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
  FrontierMemo failed(n);
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
    if (!failed.contains(f, make_key)) {
      Time min_res = kTimeMax;
      for (std::size_t p = f; p < pos[f].reach; ++p) {
        if (!is_done(p)) min_res = std::min(min_res, pos[p].res);
      }
      const std::size_t first = cands.size();
      for (std::size_t p = f; p < pos[f].reach && pos[p].inv <= min_res;
           ++p) {
        if (!is_done(p)) cands.push_back(p);
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
        flip_done(top.taken);
        f = top.frontier;
        top.taken = n;
      }
      while (top.next < top.end) {
        const std::size_t p = cands[top.next++];
        if (!object.step(ops[pos[p].index], top.undo)) continue;
        top.taken = p;
        flip_done(p);
        while (f < n && is_done(f)) ++f;
        entered = true;
        break;
      }
      if (entered) break;
      // Every step of this frame is undone: its state is back.
      failed.insert(f, make_key());
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
