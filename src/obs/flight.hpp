// Always-on binary flight recorder (docs/OBSERVABILITY.md, "Flight
// recorder").
//
// Every existing observability path — Probe dispatch, JSONL/Chrome text
// export, the causal DAG — is per-event allocation- and string-heavy, so at
// million-machine scale it gets switched off exactly when a PSC1xx bound
// violation would be most interesting. The flight recorder is the cheap
// substitute that can stay on: the executor writes one fixed-size 128-byte
// POD per event (interned kind id, owner, uid, times, value slots — no
// strings, no allocation) into per-machine-shard ring buffers, so the
// last-N-events window is always available for a crash-style dump, and
// HDR-style log-bucketed latency histograms (channel delivery, Simulation-1
// buffer hold, per-action-name step latency) are fed online from the same
// PODs. bench_executor gates the whole record path under 25% of scheduler
// ns/event at >= 65,536 machines — roughly 4x cheaper than the
// record_events TimedEvent stream it replaces (docs/OBSERVABILITY.md,
// "Cost").
//
// Layering: psc_runtime cannot link psc_obs, so everything the executor
// calls per event (record(), bind()) is defined inline in this header —
// the same arrangement as obs/probe.hpp. The cold offline half — snapshot
// serialization ("PSCFLT01" versioned binary), the TimedEvent decoder that
// reconstructs the probe-path stream byte-identically, MetricsRegistry
// export — lives in flight.cpp inside psc_obs, consumed by tools/psc_flight
// and the tests.
//
// Wiring: construct a FlightRecorder, hand it to ExecutorOptions::flight or
// Executor::attach_flight (RunObserver::attach does the latter from
// ObsOptions::flight), run, then snapshot()/dump()/export_metrics(). One
// recorder may observe several executors in sequence (the psc-report sweep
// reuses one per cell across seeds): bind() drops the per-executor kind
// memo while the recorder's own kind/string tables and histograms keep
// aggregating.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/msg_class.hpp"
#include "core/trace.hpp"
#include "obs/metrics.hpp"  // percentile_cut — shared percentile walk

namespace psc {

// --- log-bucketed histogram ------------------------------------------------

// HDR-style histogram over nonnegative int64 samples (nanoseconds here):
// values below 2^kSubBits are exact, above that each power-of-two octave is
// split into 2^kSubBits sub-buckets, so relative error is bounded by
// 2^-kSubBits (~3%) at every magnitude. Indexing is a bit_width plus a
// shift — no search — and memory is a fixed ~15 KB regardless of sample
// count, which is what lets the recorder feed three of these per event
// inside the bench overhead gate. (MetricsRegistry::Histogram needs its
// bucket range chosen at registration; latencies here span 9 decades.)
class LogHistogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;  // 32
  // Highest sample bit position is 62 (int64 max), giving linear indices
  // [0, 32) plus (62 - kSubBits + 1) part-filled octaves of 32.
  static constexpr std::size_t kBuckets = (63 - kSubBits) * kSub;

  LogHistogram() : buckets_(kBuckets, 0) {}

  static std::size_t index(std::uint64_t x) {
    if (x < kSub) return static_cast<std::size_t>(x);
    const int e = 63 - std::countl_zero(x);  // bit position of the msb
    return (static_cast<std::size_t>(e) - kSubBits) * kSub +
           static_cast<std::size_t>(x >> (e - kSubBits));
  }
  // Largest value landing in bucket i (its inclusive upper edge).
  static std::uint64_t bucket_max(std::size_t i) {
    if (i < kSub) return i;
    const std::size_t octave = i / kSub;  // >= 1
    const std::uint64_t top = kSub + i % kSub;
    return ((top + 1) << (octave - 1)) - 1;
  }

  void add(std::int64_t v) {
    const std::uint64_t x = v > 0 ? static_cast<std::uint64_t>(v) : 0;
    ++buckets_[index(x)];
    ++n_;
    sum_ += static_cast<double>(x);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  std::uint64_t min() const { return n_ ? min_ : 0; }
  std::uint64_t max() const { return n_ ? max_ : 0; }

  // p in [0, 100]: the upper edge of the bucket holding the p-th percentile
  // sample, clamped to the observed max — so the estimate is exact to one
  // sub-bucket (<= 2^-kSubBits relative error) and never exceeds a value
  // actually recorded. 0 when empty. The bucket walk is the shared
  // percentile_cut helper (obs/metrics.hpp); only the bucket -> value
  // mapping (log-bucket upper edge, no interpolation) is HDR-specific.
  std::uint64_t percentile(double p) const {
    if (n_ == 0) return 0;
    const PercentileCut cut = percentile_cut(buckets_.data(), kBuckets, n_, p);
    if (!cut.valid) return max_;
    return std::min(bucket_max(cut.bucket), max_);
  }
  std::uint64_t p50() const { return percentile(50); }
  std::uint64_t p99() const { return percentile(99); }
  std::uint64_t p999() const { return percentile(99.9); }

  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t n_ = 0;
  double sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

// --- the recorded POD ------------------------------------------------------

// An event's MsgClass (core/msg_class.hpp) is computed once per interned
// kind (never per event) and stored as a raw byte both in the kind table
// and in every record, so offline consumers can dispatch without the
// string table. PSCFLT01 snapshots depend on these values.
static_assert(static_cast<int>(MsgClass::kOther) == 0 &&
                  static_cast<int>(MsgClass::kSend) == 1 &&
                  static_cast<int>(MsgClass::kRecv) == 2 &&
                  static_cast<int>(MsgClass::kESend) == 3 &&
                  static_cast<int>(MsgClass::kERecv) == 4 &&
                  static_cast<int>(MsgClass::kTick) == 5 &&
                  static_cast<int>(MsgClass::kMmtStep) == 6,
              "MsgClass values are part of the PSCFLT01 snapshot format");

// One ring slot: everything write_trace would emit for the event, with
// every string replaced by an id into the recorder's intern tables. Two
// cache lines, trivially copyable — the snapshot file stores these raw.
// Records are assembled directly in their ring slot; 16-byte alignment
// keeps every slot tiled on exactly two cache lines.
struct alignas(16) FlightRecord {
  static constexpr std::size_t kSlots = 4;  // value slots for args / fields
  // flags bits
  static constexpr std::uint8_t kVisible = 1;   // event visible after hiding
  static constexpr std::uint8_t kHasMsg = 2;    // action carries a message
  static constexpr std::uint8_t kOverflow = 4;  // > kSlots args or fields
  // per-slot value tags
  static constexpr std::uint8_t kNone = 0;    // slot unused / monostate
  static constexpr std::uint8_t kInt = 1;     // slot holds the int64
  static constexpr std::uint8_t kDouble = 2;  // slot holds a bit-cast double
  static constexpr std::uint8_t kString = 3;  // slot holds a string-table id

  std::uint64_t seq;    // global record order: the shard-merge key
  std::int64_t time;    // TimedEvent::time
  std::int64_t clock;   // TimedEvent::clock (kNoClockTag when unclocked)
  std::uint64_t uid;    // message uid (0 without kHasMsg)
  std::int64_t tag;     // message clock_tag (kNoClockTag without one)
  std::int32_t owner;   // TimedEvent::owner
  std::uint32_t kind;   // recorder kind id -> (name, node, peer, class)
  std::uint32_t mkind;  // string id of the message kind (0 without kHasMsg)
  std::uint8_t flags;
  std::uint8_t nargs;
  std::uint8_t nfields;
  std::uint8_t cls;  // MsgClass of `kind`, denormalized
  std::uint8_t arg_tag[kSlots];
  std::uint8_t field_tag[kSlots];
  std::int64_t arg[kSlots];
  std::int64_t field[kSlots];
};
static_assert(sizeof(FlightRecord) == 128, "ring slots are two cache lines");
static_assert(std::is_trivially_copyable_v<FlightRecord>,
              "snapshots store records raw");

// --- uid -> time map for online latency matching ---------------------------

// Open-addressed linear-probe map sized for the in-flight message window
// (send seen, delivery not yet). put/take run once per messaging event on
// the record path. Erasure uses backward-shift deletion rather than
// tombstones: a steady send/receive stream cycles millions of uids through
// a table whose live size is only the wavefront, and tombstones would force
// a rehash every quarter-capacity operations — an allocation on the record
// path, which the bench overhead gate does not forgive.
class UidTimeMap {
 public:
  UidTimeMap() { reset(1024); }

  void put(std::uint64_t uid, Time t) {
    if ((size_ + 1) * 4 >= slots_.size() * 3) grow();
    const std::uint64_t key = uid + 1;  // 0 = empty
    std::size_t i = mix(key) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.key == kEmpty) {
        s.key = key;
        s.t = t;
        ++size_;
        return;
      }
      if (s.key == key) {  // re-send of the same uid: keep the latest leg
        s.t = t;
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  bool take(std::uint64_t uid, Time* out) {
    const std::uint64_t key = uid + 1;
    std::size_t i = mix(key) & mask_;
    while (slots_[i].key != key) {
      if (slots_[i].key == kEmpty) return false;
      i = (i + 1) & mask_;
    }
    *out = slots_[i].t;
    --size_;
    // Backward-shift: pull every cluster entry whose probe chain crosses
    // the freed slot, leaving no tombstone behind.
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      const std::uint64_t k = slots_[j].key;
      if (k == kEmpty) break;
      const std::size_t h = mix(k) & mask_;
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].key = kEmpty;
    return true;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint64_t kEmpty = 0;

  struct Slot {
    std::uint64_t key = kEmpty;
    Time t = 0;
  };

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
  }

  void reset(std::size_t cap) {
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    size_ = 0;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    reset(old.size() * 2);
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      std::size_t i = mix(s.key) & mask_;
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// --- snapshot --------------------------------------------------------------

struct FlightOptions {
  // Records retained per shard (rounded up to a power of two). The default
  // 8 Ki-record ring is 1 MB/shard: small enough to stay resident in the
  // last-level cache, so the steady-state ring walk costs cache writes
  // instead of DRAM streaming (measured ~2x recorder overhead for an 8 MB
  // ring on the sweep cell). Deeper forensic windows are a knob away
  // (psc-sim --flight-ring=N); the dump-on-violation window rarely needs
  // more than a few thousand events of look-behind.
  std::size_t ring_capacity = std::size_t{1} << 13;
  // Ring shards, selected by owner machine index (rounded up to a power of
  // two). Sharding keeps a chatty region from evicting the whole window;
  // one shard preserves strict global order per ring.
  std::size_t shards = 1;
  // Feed the latency histograms online from the record path. On by default
  // — the bench overhead gate measures this configuration.
  bool histograms = true;
};

// The decoded-side view of a recorder window: intern tables plus the
// retained records merged across shards in seq order. This is exactly what
// the "PSCFLT01" file carries.
struct FlightSnapshot {
  struct Kind {
    std::uint32_t name_id = 0;  // index into strings
    std::int32_t node = kNoNode;
    std::int32_t peer = kNoNode;
    MsgClass cls = MsgClass::kOther;
  };

  std::uint32_t version = 1;
  std::uint64_t total_recorded = 0;  // records ever written
  std::uint64_t dropped = 0;         // evicted by the rings before snapshot
  std::vector<std::string> strings;  // id 0 reserved empty
  std::vector<Kind> kinds;
  std::vector<FlightRecord> records;  // seq-ascending
};

// Versioned binary serialization (magic "PSCFLT01", little-endian,
// record_size stamped so readers reject layout drift). Throws CheckError on
// malformed input.
void write_snapshot(std::ostream& os, const FlightSnapshot& snap);
FlightSnapshot read_snapshot(std::istream& is);

// Reconstructs the TimedEvent stream the probe path would have emitted for
// the retained window — names/kinds resolved from the intern tables,
// TimedEvent::kind left kNoKind (flight ids are not executor ids). With a
// ring that never evicted, trace_to_text(decode(snap)) is byte-identical to
// the live probe stream. Records flagged kOverflow (> kSlots args/fields)
// decode truncated; flight_test pins the shipped workloads well below that.
TimedTrace decode_snapshot(const FlightSnapshot& snap);

// --- the recorder ----------------------------------------------------------

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightOptions opts = {}) : opts_(opts) {
    ring_cap_ = std::bit_ceil(std::max<std::size_t>(opts.ring_capacity, 2));
    shards_.resize(std::bit_ceil(std::max<std::size_t>(opts.shards, 1)));
    shard_mask_ = static_cast<std::uint32_t>(shards_.size() - 1);
    ring_mask_ = ring_cap_ - 1;
    for (Shard& s : shards_) s.buf.resize(ring_cap_);
    strings_.emplace_back();  // id 0: reserved (means "absent")
  }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Called by the executor at attach and at run() start with its unique
  // instance id: kind ids in TimedEvent::kind are per-executor, so the memo
  // translating them must reset when the recorder changes hands. The
  // recorder's own tables and histograms persist across binds.
  void bind(std::uint64_t exec_uid) {
    if (exec_uid == bound_uid_) return;
    bound_uid_ = exec_uid;
    std::fill(exec_memo_.begin(), exec_memo_.end(), ExecMemo{});
  }

  // The hot path: one POD into the owner's shard ring plus the online
  // latency histograms. No strings are hashed and nothing allocates once
  // the run's kinds have been seen (first occurrence of a kind, a message
  // kind, or a string payload takes the interning slow path). Everything
  // the per-event fill needs — flight kind id, class, the message-kind
  // memo, the step-histogram id — lives in one 12-byte ExecMemo row, so an
  // executor event costs a single table access beyond the ring stores. The
  // record is assembled directly in its ring slot — scalar stores into two
  // cache lines the sequential ring walk keeps prefetched. (Non-temporal
  // stores were tried and rejected: per-record write-combining drains
  // serialize on DRAM write latency and measured ~4x worse than plain
  // stores here.)
  void record(const TimedEvent& e) {
    const ActionKindId kid = e.kind;
    if (kid >= 0) {
      ExecMemo* m;
      if (static_cast<std::size_t>(kid) < exec_memo_.size() &&
          exec_memo_[static_cast<std::size_t>(kid)].fk != kNoFlightKind) {
        m = &exec_memo_[static_cast<std::size_t>(kid)];
      } else {
        m = intern_exec_kind(e);
      }
      fill(e, m->fk, m->cls, &m->mkind, m->step_id);
      return;
    }
    const std::uint32_t fk = intern_legacy_kind(e);
    KindEntry& k = kinds_[fk];
    fill(e, fk, static_cast<std::uint8_t>(k.cls), &k.mkind, k.step_id);
  }

  // --- counters and histograms --------------------------------------------

  std::uint64_t total_recorded() const { return seq_; }
  std::uint64_t retained() const {
    std::uint64_t n = 0;
    for (const Shard& s : shards_) n += std::min<std::uint64_t>(s.head, ring_cap_);
    return n;
  }
  std::uint64_t dropped() const { return seq_ - retained(); }
  std::size_t ring_capacity() const { return ring_cap_; }
  std::size_t shard_count() const { return shards_.size(); }

  // SENDMSG->RECVMSG (timed model) / ESENDMSG->ERECVMSG (Simulation 1)
  // channel latency.
  const LogHistogram& channel_hist() const { return chan_; }
  // ERECVMSG->RECVMSG Simulation-1 receive-buffer hold.
  const LogHistogram& hold_hist() const { return hold_; }
  // Gap to the owner's previous event, bucketed by the name of the later
  // event; nullptr until an event with that name is recorded.
  const LogHistogram* step_hist(std::string_view name) const {
    const auto it = string_ids_.find(std::string(name));
    if (it == string_ids_.end()) return nullptr;
    const auto sit = step_by_name_.find(it->second);
    return sit == step_by_name_.end() ? nullptr : steps_[sit->second].get();
  }
  // Action names with a step histogram, intern order.
  std::vector<std::string> step_names() const {
    std::vector<std::pair<std::uint32_t, std::string>> named;
    for (const auto& [id, h] : step_by_name_) named.emplace_back(id, strings_[id]);
    std::sort(named.begin(), named.end());
    std::vector<std::string> out;
    out.reserve(named.size());
    for (auto& [id, n] : named) out.push_back(std::move(n));
    return out;
  }

  // --- cold half (flight.cpp) ---------------------------------------------

  // The retained window, shards merged in seq order, with the intern tables.
  FlightSnapshot snapshot() const;
  // snapshot() serialized to `path`; false (with no partial file kept
  // guarantee) when the file cannot be written.
  bool dump(const std::string& path) const;
  // Publishes histogram percentiles as gauges: flight.channel.p50_ns /
  // .p99_ns / .p999_ns (+ .count), flight.hold.*, flight.step.<NAME>.*,
  // plus flight.recorded / flight.dropped counters.
  void export_metrics(MetricsRegistry& reg) const;

 private:
  static constexpr std::uint32_t kNoFlightKind = ~std::uint32_t{0};

  // One row per executor ActionKindId: everything the per-event fill needs,
  // so the hot path touches this table and nothing else. mkind is the
  // memoized message-kind string id (0 = not yet seen; rechecked against
  // the event's string on every use, so a kind that alternates message
  // kinds stays correct and merely re-interns).
  struct ExecMemo {
    std::uint32_t fk = kNoFlightKind;
    std::uint32_t mkind = 0;
    std::uint8_t cls = 0;
    std::uint8_t pad = 0;
    std::uint16_t step_id = 0;
  };

  struct KindEntry {
    std::uint32_t name_id = 0;
    std::int32_t node = kNoNode;
    std::int32_t peer = kNoNode;
    MsgClass cls = MsgClass::kOther;
    std::uint32_t mkind = 0;       // message-kind memo for the legacy path
    std::uint16_t step_id = 0;     // shared per action name
  };

  struct Shard {
    std::vector<FlightRecord> buf;
    std::uint64_t head = 0;  // total records ever written to this shard
  };

  // Assemble one record in its ring slot and feed the histograms. cls /
  // mkind_memo / step_id come from the caller's kind row (ExecMemo or
  // KindEntry).
  void fill(const TimedEvent& e, std::uint32_t fk, std::uint8_t cls,
            std::uint32_t* mkind_memo, std::uint16_t step_id) {
    Shard& sh = shards_[static_cast<std::uint32_t>(e.owner) & shard_mask_];
    FlightRecord& r = sh.buf[sh.head & ring_mask_];
    ++sh.head;
    // Value slots past nargs/nfields keep whatever bytes the evicted record
    // left; their tags are zeroed below (one 8-byte store covers both tag
    // arrays), and decoders must only trust tagged slots.
    std::memset(r.arg_tag, 0, sizeof r.arg_tag + sizeof r.field_tag);
    r.seq = seq_++;
    r.time = e.time;
    r.clock = e.clock;
    r.owner = e.owner;
    r.kind = fk;
    r.cls = cls;
    std::uint8_t flags = e.visible ? FlightRecord::kVisible : 0;
    const std::vector<Value>& args = e.action.args;
    std::size_t na = args.size();
    if (na > FlightRecord::kSlots) {
      flags |= FlightRecord::kOverflow;
      na = FlightRecord::kSlots;
    }
    r.nargs = static_cast<std::uint8_t>(na);
    for (std::size_t i = 0; i < na; ++i) {
      encode_value(args[i], &r.arg_tag[i], &r.arg[i]);
    }
    if (e.action.msg.has_value()) {
      const Message& m = *e.action.msg;
      flags |= FlightRecord::kHasMsg;
      r.uid = m.uid;
      r.tag = m.clock_tag;
      r.mkind = msg_kind_id(mkind_memo, m.kind);
      std::size_t nf = m.fields.size();
      if (nf > FlightRecord::kSlots) {
        flags |= FlightRecord::kOverflow;
        nf = FlightRecord::kSlots;
      }
      r.nfields = static_cast<std::uint8_t>(nf);
      for (std::size_t i = 0; i < nf; ++i) {
        encode_value(m.fields[i], &r.field_tag[i], &r.field[i]);
      }
    } else {
      r.uid = 0;
      r.tag = kNoClockTag;
      r.mkind = 0;
      r.nfields = 0;
    }
    r.flags = flags;
    if (opts_.histograms) observe_latencies(e, cls, step_id, r);
  }

  // Interning slow paths. Inline like the rest of the record path: the
  // executor (psc_runtime, which cannot link psc_obs) reaches them on a
  // kind's first occurrence.
  //
  // Executor-id path: ActionKindId already dedups (name, node, peer) per
  // run, so there is no hash-map probe here — at million-machine scale a
  // run interns one kind per few events (kinds are per node/peer) and the
  // (name, node, peer) map was the single largest record-path cost. The
  // entry is built straight from the event and memoized by executor id.
  // Rebinding the recorder to a new executor may therefore append duplicate
  // (name, node, peer) rows to the kind table; records keep referencing
  // their original row and step histograms are shared per name, so decode,
  // metrics, and aggregation across binds are unaffected.
  ExecMemo* intern_exec_kind(const TimedEvent& e) {
    const Action& a = e.action;
    const NameRef nr = name_ref(a.name);
    KindEntry k;
    k.name_id = nr.id;
    k.node = a.node;
    k.peer = a.peer;
    k.cls = nr.cls;
    k.step_id = nr.step_id;
    const auto fk = static_cast<std::uint32_t>(kinds_.size());
    kinds_.push_back(k);
    const auto kid = static_cast<std::size_t>(e.kind);
    if (kid >= exec_memo_.size()) exec_memo_.resize(kid + 1);
    ExecMemo& m = exec_memo_[kid];
    m.fk = fk;
    m.mkind = 0;
    m.cls = static_cast<std::uint8_t>(nr.cls);
    m.step_id = nr.step_id;
    return &m;
  }

  // Legacy-loop / hand-built events carry no executor kind id, so dedup
  // falls back to the (name, node, peer) map.
  std::uint32_t intern_legacy_kind(const TimedEvent& e) {
    const Action& a = e.action;
    const auto it = kind_ids_.find(ActionKindView{a.name, a.node, a.peer});
    if (it != kind_ids_.end()) return it->second;
    const NameRef nr = name_ref(a.name);
    KindEntry k;
    k.name_id = nr.id;
    k.node = a.node;
    k.peer = a.peer;
    k.cls = nr.cls;
    k.step_id = nr.step_id;
    const auto fk = static_cast<std::uint32_t>(kinds_.size());
    kinds_.push_back(k);
    kind_ids_.emplace(ActionKindKey{a.name, a.node, a.peer}, fk);
    return fk;
  }

  // Per-name intern state (string id, class, shared step histogram),
  // fronted by a small direct-mapped cache: workloads use a handful of
  // action names but intern thousands of (name, node, peer) kinds, and two
  // hash-map probes per intern is exactly the cost intern_exec_kind exists
  // to avoid. Collisions simply retake the slow path.
  struct NameRef {
    std::uint32_t id = 0;  // 0 = cache slot empty (id 0 is the reserved "")
    MsgClass cls = MsgClass::kOther;
    std::uint16_t step_id = 0;
  };

  NameRef name_ref(const std::string& name) {
    const std::size_t h =
        (name.size() * 7 +
         (name.empty() ? 0u : static_cast<unsigned char>(name.front()))) &
        (name_cache_.size() - 1);
    NameRef& c = name_cache_[h];
    if (c.id != 0 && strings_[c.id] == name) return c;
    NameRef r;
    r.id = intern_string(name);
    r.cls = msg_class(name);
    const auto [it, fresh] = step_by_name_.try_emplace(r.id, std::uint16_t{0});
    if (fresh) {
      it->second = static_cast<std::uint16_t>(steps_.size());
      steps_.push_back(std::make_unique<LogHistogram>());
    }
    r.step_id = it->second;
    if (r.id != 0) c = r;
    return r;
  }

  std::uint32_t intern_string(std::string_view s) {
    const auto it = string_ids_.find(std::string(s));
    if (it != string_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(strings_.size());
    strings_.emplace_back(s);
    string_ids_.emplace(strings_.back(), id);
    return id;
  }

  std::uint32_t msg_kind_id(std::uint32_t* memo, const std::string& kind) {
    if (*memo != 0 && strings_[*memo] == kind) return *memo;
    const std::uint32_t id = intern_string(kind);
    *memo = id;
    return id;
  }

  void encode_value(const Value& v, std::uint8_t* tag, std::int64_t* slot) {
    switch (v.index()) {
      case 1:
        *tag = FlightRecord::kInt;
        *slot = std::get<std::int64_t>(v);
        return;
      case 2:
        *tag = FlightRecord::kDouble;
        *slot = std::bit_cast<std::int64_t>(std::get<double>(v));
        return;
      case 3:
        *tag = FlightRecord::kString;
        *slot = static_cast<std::int64_t>(intern_string(std::get<std::string>(v)));
        return;
      default:
        *tag = FlightRecord::kNone;
        *slot = 0;
        return;
    }
  }

  void observe_latencies(const TimedEvent& e, std::uint8_t cls,
                         std::uint16_t step_id, const FlightRecord& r) {
    if (e.owner >= 0) {
      const auto o = static_cast<std::size_t>(e.owner);
      if (o >= last_time_.size()) last_time_.resize(o + 1, Time{-1});
      const Time last = last_time_[o];
      last_time_[o] = e.time;
      if (last >= 0) steps_[step_id]->add(e.time - last);
    }
    if ((r.flags & FlightRecord::kHasMsg) == 0) return;
    Time t;
    switch (static_cast<MsgClass>(cls)) {
      case MsgClass::kSend:
      case MsgClass::kESend:
        sent_.put(r.uid, e.time);
        break;
      case MsgClass::kERecv:
        if (sent_.take(r.uid, &t)) chan_.add(e.time - t);
        arrived_.put(r.uid, e.time);
        break;
      case MsgClass::kRecv:
        if (arrived_.take(r.uid, &t)) {
          hold_.add(e.time - t);
        } else if (sent_.take(r.uid, &t)) {
          chan_.add(e.time - t);
        }
        break;
      default:
        break;
    }
  }

  FlightOptions opts_;
  std::size_t ring_cap_ = 0;
  std::uint64_t ring_mask_ = 0;
  std::uint32_t shard_mask_ = 0;
  std::vector<Shard> shards_;
  std::uint64_t seq_ = 0;

  // Kind/string intern tables. exec_memo_ maps the bound executor's
  // ActionKindId to a recorder kind id for O(1) hot lookups; kind_ids_ is
  // the (name, node, peer) fallback for legacy-loop / hand-built events.
  std::uint64_t bound_uid_ = 0;
  std::vector<ExecMemo> exec_memo_;
  std::unordered_map<ActionKindKey, std::uint32_t, ActionKindHash, ActionKindEq>
      kind_ids_;
  std::vector<KindEntry> kinds_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint32_t> string_ids_;
  std::array<NameRef, 16> name_cache_{};

  // Online latency state.
  LogHistogram chan_;
  LogHistogram hold_;
  std::vector<std::unique_ptr<LogHistogram>> steps_;  // step_id -> histogram
  std::unordered_map<std::uint32_t, std::uint16_t>
      step_by_name_;                // name string id -> step_id
  std::vector<Time> last_time_;     // owner -> previous event time (-1 none)
  UidTimeMap sent_;                 // uid -> SENDMSG/ESENDMSG time
  UidTimeMap arrived_;              // uid -> ERECVMSG time (Simulation 1)
};

}  // namespace psc
