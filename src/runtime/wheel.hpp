// Hierarchical timing wheel — the executor's wake calendar.
//
// The calendar has to answer two queries per time advance, both over the
// per-slot hints the scheduler caches at re-poll time (a slot is one part
// of a machine; see runtime/executor.hpp):
//
//   earliest()    the minimum valid wake time (exact, because the executor
//                 jumps `now` straight to it and every probe observes the
//                 jump);
//   advance_to(t) drain every entry that has come due at the new `now`.
//
// Insertion and draining are O(1)-ish array indexing, so per-event cost
// stays flat as the slot count grows. Cancellation is lazy: entries carry
// the owning slot's generation counter, and a bumped generation
// invalidates in place — nothing is ever searched for and removed. The
// executor bumps a slot's generation on every re-poll and files at most
// one entry per wheel per re-poll, so each slot has at most one
// current-generation entry per wheel; every other entry for it is stale.
//
// Layout: 11 levels x 64 slots keyed on the 6-bit groups of the absolute
// Time in ns. An entry lives at the *highest level whose 6-bit group
// differs between its time and the wheel's current time* (`cur_`), in the
// slot holding its group value:
//
//   level 0   next 64 ns            exact slot per tick
//   level 1   next 4 us             64 ns per slot
//   ...                             ...
//   level 10  out past kTimeMax     64^10 ns per slot   (overflow levels)
//
// This "highest differing group" rule (rather than the classic
// delta-magnitude rule) keeps three invariants that make min-queries exact
// with no cursor wraparound:
//   * every entry at level L agrees with cur_ on all groups above L, so its
//     slot index is strictly greater than cur_'s level-L group — slots
//     never wrap, and ascending slot index is ascending time;
//   * every entry at level L is strictly greater than every entry at any
//     level below L, so the lowest occupied level owns the minimum;
//   * slots at one level cover disjoint time ranges, so the first occupied
//     slot of that level contains the minimum and a scan of that one slot
//     (dropping stale entries as it goes) yields it exactly.
//
// advance_to(now) pays the classic wheel cascade: levels below the highest
// group changed by the jump drain entirely (everything there is due), and
// the slot the new cursor lands in re-splits — due entries drain, future
// entries reinsert at a strictly lower level. Each entry therefore cascades
// at most kLevels times over its lifetime, amortized O(1) per event.
//
// Entries with t == cur_ (an upper bound that stops time *now*) sit in a
// dedicated now-bucket that earliest() reports as cur_: such an entry is
// the exact minimum, since nothing filed is earlier than cur_.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/time.hpp"
#include "util/check.hpp"

namespace psc {

// Wheel self-metrics, embedded in ExecutorStats (see executor.hpp). Plain
// counters on already-touched lines, like the rest of the scheduler stats.
struct WheelStats {
  std::uint64_t inserts = 0;      // entries added (re-poll pushes)
  std::uint64_t due = 0;          // valid entries drained by advance_to
  std::uint64_t stale_drops = 0;  // lazily-cancelled entries discarded
  std::uint64_t cascades = 0;     // entries re-filed at a lower level
  std::uint64_t compactions = 0;  // full stale sweeps

  bool operator==(const WheelStats&) const = default;
};

class TimingWheel {
 public:
  static constexpr int kLevelBits = 6;
  static constexpr int kSlots = 1 << kLevelBits;        // 64
  static constexpr int kLevels = 11;                    // 66 bits > kTimeMax
  static constexpr std::uint64_t kSlotMask = kSlots - 1;

  struct Entry {
    Time t = 0;
    std::uint32_t slot = 0;  // the executor's scheduler slot
    std::uint32_t gen = 0;
  };

  // Empties the wheel and re-bases it at `cur` (the executor's `now`).
  void reset(Time cur) {
    for (int l = 0; l < kLevels; ++l) {
      if (occ_[l] == 0) continue;
      std::uint64_t bits = occ_[l];
      while (bits != 0) {
        slots_[slot_at(l, std::countr_zero(bits))].clear();
        bits &= bits - 1;
      }
      occ_[l] = 0;
    }
    now_bucket_.clear();
    cur_ = cur;
    size_ = 0;
  }

  Time current() const { return cur_; }
  // Total entries held, stale included (drives the compaction policy).
  std::size_t size() const { return size_; }

  void insert(Time t, std::uint32_t slot, std::uint32_t gen,
              WheelStats& st) {
    ++st.inserts;
    file(Entry{t, slot, gen});
  }

  // Exact minimum valid wake time, or kTimeMax when none. Stale entries
  // met along the way are dropped in place, so repeated queries do not
  // re-scan them. `valid(entry)` is the lazy-cancellation test.
  template <typename Valid>
  Time earliest(Valid&& valid, WheelStats& st) {
    drop_stale(now_bucket_, valid, st);
    if (!now_bucket_.empty()) return cur_;
    for (int l = 0; l < kLevels; ++l) {
      std::uint64_t bits = occ_[l];
      while (bits != 0) {
        const int s = std::countr_zero(bits);
        std::vector<Entry>& slot = slots_[slot_at(l, s)];
        drop_stale(slot, valid, st);
        if (slot.empty()) {
          occ_[l] &= ~(std::uint64_t{1} << s);
          bits &= bits - 1;
          continue;
        }
        Time best = slot.front().t;
        for (std::size_t i = 1; i < slot.size(); ++i) {
          best = std::min(best, slot[i].t);
        }
        return best;  // disjoint ascending slot ranges: this is the min
      }
    }
    return kTimeMax;
  }

  // Advances the wheel to `now`, calling `due(slot)` for every valid
  // entry with t <= now and cascading the rest of the cursor slot down.
  template <typename Valid, typename Due>
  void advance_to(Time now, Valid&& valid, Due&& due, WheelStats& st) {
    PSC_CHECK(now >= cur_, "wheel moved backwards: " << format_time(now)
                                                     << " < "
                                                     << format_time(cur_));
    drain(now_bucket_, valid, due, st);
    if (now == cur_) return;
    const int d = level_of(now);
    for (int l = 0; l < d; ++l) {
      // Every entry below the highest changed group is in the past now.
      std::uint64_t bits = occ_[l];
      while (bits != 0) {
        drain(slots_[slot_at(l, std::countr_zero(bits))], valid, due, st);
        bits &= bits - 1;
      }
      occ_[l] = 0;
    }
    const int cursor = static_cast<int>((now >> (d * kLevelBits)) & kSlotMask);
    std::uint64_t bits = occ_[d];
    while (bits != 0) {
      const int s = std::countr_zero(bits);
      if (s > cursor) break;  // ascending: the rest stays at this level
      if (s < cursor) {
        drain(slots_[slot_at(d, s)], valid, due, st);
      } else {
        // The cursor slot straddles `now`: re-split after re-basing.
        cascade_.clear();
        cascade_.swap(slots_[slot_at(d, s)]);
        size_ -= cascade_.size();
      }
      occ_[d] &= ~(std::uint64_t{1} << s);
      bits &= bits - 1;
    }
    cur_ = now;
    for (Entry& e : cascade_) {
      if (!valid(e)) {
        ++st.stale_drops;
      } else if (e.t <= now) {
        ++st.due;
        due(e.slot);
      } else {
        ++st.cascades;
        file(e);  // lands at a strictly lower level than d
      }
    }
    cascade_.clear();
  }

  // Sweeps every slot, dropping stale entries — the lazy-cancellation
  // backstop for when stale entries dominate. The caller decides when:
  // with at most one current-generation entry per slot, size() far above
  // the slot count means the wheel is mostly stale.
  template <typename Valid>
  void compact(Valid&& valid, WheelStats& st) {
    ++st.compactions;
    drop_stale(now_bucket_, valid, st);
    for (int l = 0; l < kLevels; ++l) {
      std::uint64_t bits = occ_[l];
      while (bits != 0) {
        const int s = std::countr_zero(bits);
        std::vector<Entry>& slot = slots_[slot_at(l, s)];
        drop_stale(slot, valid, st);
        if (slot.empty()) occ_[l] &= ~(std::uint64_t{1} << s);
        bits &= bits - 1;
      }
    }
  }

 private:
  static std::size_t slot_at(int level, int slot) {
    return static_cast<std::size_t>(level) * kSlots +
           static_cast<std::size_t>(slot);
  }

  // Highest 6-bit group where t differs from cur_ (t != cur_).
  int level_of(Time t) const {
    const std::uint64_t x =
        static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(cur_);
    return (63 - std::countl_zero(x)) / kLevelBits;
  }

  void file(const Entry& e) {
    PSC_CHECK(e.t >= cur_, "wake in the past: " << format_time(e.t) << " < "
                                                << format_time(cur_));
    ++size_;
    if (e.t == cur_) {
      now_bucket_.push_back(e);
      return;
    }
    const int l = level_of(e.t);
    const int s = static_cast<int>((e.t >> (l * kLevelBits)) & kSlotMask);
    slots_[slot_at(l, s)].push_back(e);
    occ_[l] |= std::uint64_t{1} << s;
  }

  template <typename Valid>
  void drop_stale(std::vector<Entry>& slot, Valid&& valid, WheelStats& st) {
    std::size_t k = 0;
    for (std::size_t i = 0; i < slot.size(); ++i) {
      if (valid(slot[i])) {
        if (k != i) slot[k] = slot[i];
        ++k;
      } else {
        ++st.stale_drops;
      }
    }
    size_ -= slot.size() - k;
    slot.resize(k);
  }

  template <typename Valid, typename Due>
  void drain(std::vector<Entry>& slot, Valid&& valid, Due&& due,
             WheelStats& st) {
    for (const Entry& e : slot) {
      if (valid(e)) {
        ++st.due;
        due(e.slot);
      } else {
        ++st.stale_drops;
      }
    }
    size_ -= slot.size();
    slot.clear();
  }

  std::array<std::vector<Entry>, kLevels * kSlots> slots_;
  std::array<std::uint64_t, kLevels> occ_ = {};
  std::vector<Entry> now_bucket_;  // t == cur_ (urgent upper bounds)
  std::vector<Entry> cascade_;     // advance_to scratch, capacity recycled
  Time cur_ = 0;
  std::size_t size_ = 0;
};

}  // namespace psc
