// Hierarchical timing wheel — the executor's wake calendar.
//
// The calendar has to answer two queries per time advance, both over the
// per-slot hints the scheduler caches at re-poll time (a slot is one part
// of a machine; see runtime/executor.hpp):
//
//   earliest()    the minimum wake time (exact, because the executor jumps
//                 `now` straight to it and every probe observes the jump);
//   advance_to(t) drain every entry that has come due at the new `now`.
//
// Each slot owns at most one entry, and a per-slot back-index records
// which bucket holds it and where: set() files it, moves it when the
// slot's hint changes, and leaves it alone when the hint is unchanged;
// unlink() takes it out, the bucket's last entry filling its place. Every
// operation is O(1) array indexing, so per-event cost stays flat as the
// slot count grows, and nothing the wheel holds is ever stale (the O(1)
// start/stop timers of Varghese & Lauck's hashed and hierarchical timing
// wheels, SOSP 1987, with buckets kept as arrays rather than linked lists
// so that draining and cascading stream through contiguous memory).
//
// Layout: 11 levels x 64 buckets keyed on the 6-bit groups of the absolute
// Time in ns. An entry lives at the *highest level whose 6-bit group
// differs between its time and the wheel's current time* (`cur_`), in the
// bucket holding its group value:
//
//   level 0   next 64 ns            exact bucket per tick
//   level 1   next 4 us             64 ns per bucket
//   ...                             ...
//   level 10  out past kTimeMax     64^10 ns per bucket   (overflow levels)
//
// This "highest differing group" rule (rather than the classic
// delta-magnitude rule) keeps three invariants that make min-queries exact
// with no cursor wraparound:
//   * every entry at level L agrees with cur_ on all groups above L, so its
//     bucket index is strictly greater than cur_'s level-L group — buckets
//     never wrap, and ascending bucket index is ascending time;
//   * every entry at level L is strictly greater than every entry at any
//     level below L, so the lowest occupied level owns the minimum;
//   * buckets at one level cover disjoint time ranges, so the first
//     occupied bucket of that level contains the minimum and a scan of
//     that one bucket yields it exactly.
//
// advance_to(now) pays the classic wheel cascade: levels below the highest
// group changed by the jump drain entirely (everything there is due), and
// the bucket the new cursor lands in re-splits — due entries drain, future
// entries re-file at a strictly lower level. Each entry therefore cascades
// at most kLevels times per filing, amortized O(1) per event.
//
// Entries with t == cur_ (an upper bound that stops time *now*) sit in a
// dedicated now-bucket that earliest() reports as cur_: such an entry is
// the exact minimum, since nothing filed is earlier than cur_.
#pragma once

#include <algorithm>
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
  std::uint64_t inserts = 0;   // entries filed or moved by set()
  std::uint64_t due = 0;       // entries drained by advance_to
  // Always 0: entries are moved or unlinked in place, so none goes stale.
  // Kept because psc_bench reports it; it goes with the next
  // benchmark-definition change (ROADMAP item 10).
  std::uint64_t stale_drops = 0;
  std::uint64_t cascades = 0;  // entries re-filed at a lower level

  bool operator==(const WheelStats&) const = default;
};

class TimingWheel {
 public:
  static constexpr int kLevelBits = 6;
  static constexpr int kSlots = 1 << kLevelBits;        // 64
  static constexpr int kLevels = 11;                    // 66 bits > kTimeMax
  static constexpr std::uint64_t kSlotMask = kSlots - 1;

  // Empties the wheel, re-bases it at `cur` (the executor's `now`) and
  // sizes it for slots 0 .. slots - 1, none of them filed. Every bucket
  // keeps room for kBucketReserve entries: buckets are keyed on absolute
  // time, so a run keeps reaching buckets it has not used before (a
  // level-4 bucket first every 16.7 ms of simulated time), and without the
  // room each first use would allocate mid-run.
  void reset(Time cur, std::size_t slots) {
    for (std::vector<Entry>& b : buckets_) {
      b.clear();
      b.reserve(kBucketReserve);
    }
    occ_ = {};
    where_.assign(slots, Where{});
    cur_ = cur;
    size_ = 0;
  }

  // Entries filed, at most one per slot.
  std::size_t size() const { return size_; }
  bool linked(std::uint32_t slot) const {
    return where_[slot].bucket != kNone;
  }

  // Files `slot`'s entry at t, moving it if it is filed at another time;
  // an entry already filed at t is left alone, and t == kTimeMax (no wake)
  // unlinks it.
  void set(std::uint32_t slot, Time t, WheelStats& st) {
    const Where w = where_[slot];
    if (w.bucket != kNone) {
      if (buckets_[w.bucket][w.index].t == t) return;
      unlink(slot);
    }
    if (t == kTimeMax) return;
    ++st.inserts;
    ++size_;
    file(Entry{t, slot});
  }

  // Takes `slot`'s entry out, if it has one: the bucket's last entry
  // fills its place.
  void unlink(std::uint32_t slot) {
    Where& w = where_[slot];
    if (w.bucket == kNone) return;
    std::vector<Entry>& b = buckets_[w.bucket];
    if (w.index + 1 != b.size()) {
      b[w.index] = b.back();
      where_[b[w.index].slot].index = w.index;
    }
    b.pop_back();
    if (b.empty() && w.bucket != kNowBucket) {
      occ_[w.bucket / kSlots] &= ~(std::uint64_t{1} << (w.bucket % kSlots));
    }
    w.bucket = kNone;
    --size_;
  }

  // Exact minimum wake time, or kTimeMax when none.
  Time earliest() const {
    if (size_ == 0) return kTimeMax;
    if (!buckets_[kNowBucket].empty()) return cur_;
    for (int l = 0; l < kLevels; ++l) {
      if (occ_[l] == 0) continue;
      // Disjoint ascending bucket ranges: the first bucket holds the min.
      const std::vector<Entry>& b =
          buckets_[bucket_at(l, std::countr_zero(occ_[l]))];
      if (l == 0) return b.front().t;  // a level-0 bucket is one time
      Time best = b.front().t;
      for (std::size_t i = 1; i < b.size(); ++i) best = std::min(best, b[i].t);
      return best;
    }
    return kTimeMax;
  }

  // Advances the wheel to `now`, unlinking every entry with t <= now and
  // calling `due(slot)` for it, and cascading the rest of the cursor
  // bucket down. `due` must not touch the wheel.
  template <typename Due>
  void advance_to(Time now, Due&& due, WheelStats& st) {
    PSC_CHECK(now >= cur_, "wheel moved backwards: " << format_time(now)
                                                     << " < "
                                                     << format_time(cur_));
    if (size_ == 0) {
      cur_ = now;  // nothing to drain or cascade
      return;
    }
    drain(buckets_[kNowBucket], due, st);
    if (now == cur_) return;
    const int d = level_of(now);
    for (int l = 0; l < d; ++l) {
      // Every entry below the highest changed group is in the past now.
      for (std::uint64_t bits = occ_[l]; bits != 0; bits &= bits - 1) {
        drain(buckets_[bucket_at(l, std::countr_zero(bits))], due, st);
      }
      occ_[l] = 0;
    }
    const int cursor = static_cast<int>((now >> (d * kLevelBits)) & kSlotMask);
    std::uint32_t split = kNone;  // the cursor bucket, if occupied
    for (std::uint64_t bits = occ_[d]; bits != 0; bits &= bits - 1) {
      const int s = std::countr_zero(bits);
      if (s > cursor) break;  // ascending: the rest stays at this level
      if (s < cursor) {
        drain(buckets_[bucket_at(d, s)], due, st);
      } else {
        // The cursor bucket straddles `now`: re-split after re-basing.
        split = bucket_at(d, s);
        cascade_.swap(buckets_[split]);
      }
      occ_[d] &= ~(std::uint64_t{1} << s);
    }
    cur_ = now;
    for (const Entry& e : cascade_) {
      if (e.t <= now) {
        where_[e.slot].bucket = kNone;
        --size_;
        ++st.due;
        due(e.slot);
      } else {
        ++st.cascades;
        file(e);  // lands at a strictly lower level than d
      }
    }
    // Hand the borrowed buffer back (nothing was filed into the cursor
    // bucket meanwhile), so every bucket keeps its own capacity and the
    // steady state allocates nothing.
    cascade_.clear();
    if (split != kNone) cascade_.swap(buckets_[split]);
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr std::size_t kBucketReserve = 8;
  static constexpr std::uint32_t kNowBucket = kLevels * kSlots;

  struct Entry {
    Time t = 0;
    std::uint32_t slot = 0;
  };
  // Where a slot's entry is filed (bucket == kNone when it has none).
  struct Where {
    std::uint32_t bucket = kNone;
    std::uint32_t index = 0;
  };

  static std::uint32_t bucket_at(int level, int slot) {
    return static_cast<std::uint32_t>(level * kSlots + slot);
  }

  // Highest 6-bit group where t differs from cur_ (t != cur_).
  int level_of(Time t) const {
    const std::uint64_t x =
        static_cast<std::uint64_t>(t) ^ static_cast<std::uint64_t>(cur_);
    return (63 - std::countl_zero(x)) / kLevelBits;
  }

  // Appends `e` to the bucket its time files in and records where.
  void file(const Entry& e) {
    PSC_CHECK(e.t >= cur_, "wake in the past: " << format_time(e.t) << " < "
                                                << format_time(cur_));
    std::uint32_t b = kNowBucket;
    if (e.t != cur_) {
      const int l = level_of(e.t);
      const int s = static_cast<int>((e.t >> (l * kLevelBits)) & kSlotMask);
      b = bucket_at(l, s);
      occ_[l] |= std::uint64_t{1} << s;
    }
    where_[e.slot] = {b, static_cast<std::uint32_t>(buckets_[b].size())};
    buckets_[b].push_back(e);
  }

  // Unlinks every entry of `bucket`, calling `due` for each. The caller
  // clears the bucket's occupancy bit.
  template <typename Due>
  void drain(std::vector<Entry>& bucket, Due&& due, WheelStats& st) {
    for (const Entry& e : bucket) {
      where_[e.slot].bucket = kNone;
      ++st.due;
      due(e.slot);
    }
    size_ -= bucket.size();
    bucket.clear();
  }

  // kLevels * kSlots level buckets, then the now-bucket (t == cur_, urgent
  // upper bounds).
  std::array<std::vector<Entry>, kLevels * kSlots + 1> buckets_;
  std::array<std::uint64_t, kLevels> occ_ = {};
  std::vector<Where> where_;     // per slot
  std::vector<Entry> cascade_;   // advance_to scratch, capacity recycled
  Time cur_ = 0;
  std::size_t size_ = 0;
};

}  // namespace psc
