// Dense uid-keyed record store: the window meter's message ledger
// (analysis/meter.hpp), which feeds the trace invariant checker, the
// bound-slack observatory and the certificate probe.
//
// Message uids come from one process-global monotone counter, so the uids
// seen within a single run occupy a contiguous range. A base-offset vector
// turns the per-message bookkeeping that dominates those probes' hot paths
// into O(1) indexing — an unordered_map here costs more than the rest of
// the probe combined (the bench_executor PSC_LINT/PSC_OBS/PSC_CERT
// overhead gates hold the probes under 5% of scheduler ns/event).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psc {

// Records must be default-constructible with sentinel field values: an
// in-range uid that was never written through operator[] yields a
// default-constructed record, so "absent" is expressed by the record's own
// sentinels (e.g. times < 0), not by the index.
template <typename Record>
class UidIndex {
 public:
  // Get-or-create the record for `uid`. The two common cases — revisiting
  // a live uid and appending the next uid from the monotone counter — stay
  // on vector-indexing / push_back fast paths.
  Record& operator[](std::uint64_t uid) {
    if (!recs_.empty() && uid >= base_) {
      const std::size_t i = static_cast<std::size_t>(uid - base_);
      if (i < recs_.size()) return recs_[i];
      if (i == recs_.size()) {
        recs_.emplace_back();
        return recs_.back();
      }
      recs_.resize(i + 1);
      return recs_[i];
    }
    if (recs_.empty()) {
      base_ = uid;
      recs_.emplace_back();
      return recs_.front();
    }
    // Rare: an earlier-created message observed after a later one.
    recs_.insert(recs_.begin(), static_cast<std::size_t>(base_ - uid),
                 Record{});
    base_ = uid;
    return recs_.front();
  }

  // The record for `uid`, or nullptr when `uid` lies outside the touched
  // range. In-range untouched uids return a default-constructed record —
  // callers check its sentinel fields.
  const Record* find(std::uint64_t uid) const {
    if (recs_.empty() || uid < base_ || uid - base_ >= recs_.size()) {
      return nullptr;
    }
    return &recs_[static_cast<std::size_t>(uid - base_)];
  }
  Record* find(std::uint64_t uid) {
    return const_cast<Record*>(
        static_cast<const UidIndex*>(this)->find(uid));
  }

 private:
  std::uint64_t base_ = 0;
  std::vector<Record> recs_;
};

}  // namespace psc
