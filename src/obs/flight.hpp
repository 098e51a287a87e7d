// Always-on binary flight recorder (docs/OBSERVABILITY.md, "Flight
// recorder").
//
// Every existing observability path — Probe dispatch, JSONL/Chrome text
// export, the causal DAG — is per-event allocation- and string-heavy, so at
// million-machine scale it gets switched off exactly when a PSC1xx bound
// violation would be most interesting. The flight recorder is the cheap
// substitute that can stay on: the executor writes one fixed-size 128-byte
// POD per event (interned kind id, owner, uid, times, value slots — no
// strings, no allocation) into one ring buffer, so the last-N-events
// window is always available for a crash-style dump. The recorder only
// records: the latencies the paper bounds are measured once, by the
// registry probes (obs/probes.hpp) on the window meter's legs, and the
// recorder keeps no per-message or per-machine state. bench_executor
// gates the whole record path under 25% of scheduler ns/event at >= 65,536
// machines (docs/OBSERVABILITY.md, "Cost").
//
// Layering: psc_runtime cannot link psc_obs, so everything the executor
// calls per event (record(), bind()) is defined inline in this header —
// the same arrangement as obs/probe.hpp. The cold offline half — snapshot
// serialization ("PSCFLT01" versioned binary), the TimedEvent decoder that
// reconstructs the probe-path stream byte-identically, MetricsRegistry
// export — lives in flight.cpp inside psc_obs, consumed by tools/psc_flight
// and the tests.
//
// Wiring: construct a FlightRecorder, hand it to Executor::attach_flight
// (RunObserver::attach does this from ObsOptions::flight), run, then
// snapshot()/dump()/export_metrics(). One recorder may observe several
// executors in sequence: bind() drops the per-executor kind memo while the
// recorder's own kind/string tables and ring keep accumulating.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/msg_class.hpp"
#include "core/trace.hpp"
#include "util/check.hpp"

namespace psc {

class MetricsRegistry;

// --- the recorded POD ------------------------------------------------------

// An event's MsgClass (core/msg_class.hpp) is read off its action name's id
// once per interned kind and stored as a raw byte both in the kind table
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

// --- snapshot --------------------------------------------------------------

struct FlightOptions {
  // Records retained (rounded up to a power of two). The default 8 Ki-record
  // ring is 1 MB: small enough to stay resident in the last-level cache, so
  // the steady-state ring walk costs cache writes instead of DRAM streaming
  // (measured ~2x recorder overhead for an 8 MB ring on the sweep cell).
  // Deeper forensic windows are a knob away (psc-sim --flight-ring=N); the
  // dump-on-violation window rarely needs more than a few thousand events
  // of look-behind.
  std::size_t ring_capacity = std::size_t{1} << 13;
};

// The decoded-side view of a recorder window: intern tables plus the
// retained records in seq order. This is exactly what the "PSCFLT01" file
// carries.
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
  explicit FlightRecorder(FlightOptions opts = {}) {
    ring_cap_ = std::bit_ceil(std::max<std::size_t>(opts.ring_capacity, 2));
    ring_mask_ = ring_cap_ - 1;
    ring_.resize(ring_cap_);
    strings_.emplace_back();  // id 0: reserved (means "absent")
  }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Called by the executor at attach and at run() start with its unique
  // instance id: kind ids in TimedEvent::kind are per-executor, so the memo
  // translating them must reset when the recorder changes hands. The
  // recorder's own tables and ring persist across binds.
  void bind(std::uint64_t exec_uid) {
    if (exec_uid == bound_uid_) return;
    bound_uid_ = exec_uid;
    std::fill(exec_memo_.begin(), exec_memo_.end(), ExecMemo{});
  }

  // The hot path: one POD into the ring. No strings are hashed and nothing
  // allocates once the run's kinds have been seen (first occurrence of a
  // kind, a message kind, or a string payload takes the interning slow
  // path). Everything the per-event fill needs — flight kind id, class and
  // the message-kind memo — lives in one 12-byte ExecMemo row, so an
  // executor event costs a single table access beyond the ring stores. The
  // record is assembled directly in its ring slot — scalar stores into two
  // cache lines the sequential ring walk keeps prefetched. (Non-temporal
  // stores were tried and rejected: per-record write-combining drains
  // serialize on DRAM write latency and measured ~4x worse than plain
  // stores here.)
  void record(const TimedEvent& e) {
    // Every executor event carries its kind id. kNoKind wraps to a huge
    // index, so it always reaches the slow path, which rejects it.
    const auto kid = static_cast<std::size_t>(e.kind);
    ExecMemo& m = kid < exec_memo_.size() && exec_memo_[kid].fk != kNoFlightKind
                      ? exec_memo_[kid]
                      : intern_exec_kind(e);
    fill(e, m);
  }

  // --- counters -----------------------------------------------------------

  std::uint64_t total_recorded() const { return seq_; }
  std::uint64_t retained() const {
    return std::min<std::uint64_t>(seq_, ring_cap_);
  }
  std::uint64_t dropped() const { return seq_ - retained(); }
  std::size_t ring_capacity() const { return ring_cap_; }

  // --- cold half (flight.cpp) ---------------------------------------------

  // The retained window in seq order, with the intern tables.
  FlightSnapshot snapshot() const;
  // snapshot() serialized to `path`; false (with no partial file kept
  // guarantee) when the file cannot be written.
  bool dump(const std::string& path) const;
  // Publishes the flight.recorded / flight.dropped gauges.
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
  };

  // Assemble one record in its ring slot from the event's kind row.
  void fill(const TimedEvent& e, ExecMemo& m) {
    FlightRecord& r = ring_[seq_ & ring_mask_];
    // Value slots past nargs/nfields keep whatever bytes the evicted record
    // left; their tags are zeroed below (one 8-byte store covers both tag
    // arrays), and decoders must only trust tagged slots.
    std::memset(r.arg_tag, 0, sizeof r.arg_tag + sizeof r.field_tag);
    r.seq = seq_++;
    r.time = e.time;
    r.clock = e.clock;
    r.owner = e.owner;
    r.kind = m.fk;
    r.cls = m.cls;
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
      const Message& msg = *e.action.msg;
      flags |= FlightRecord::kHasMsg;
      r.uid = msg.uid;
      r.tag = msg.clock_tag;
      r.mkind = msg_kind_id(&m.mkind, msg.kind);
      std::size_t nf = msg.fields.size();
      if (nf > FlightRecord::kSlots) {
        flags |= FlightRecord::kOverflow;
        nf = FlightRecord::kSlots;
      }
      r.nfields = static_cast<std::uint8_t>(nf);
      for (std::size_t i = 0; i < nf; ++i) {
        encode_value(msg.fields[i], &r.field_tag[i], &r.field[i]);
      }
    } else {
      r.uid = 0;
      r.tag = kNoClockTag;
      r.mkind = 0;
      r.nfields = 0;
    }
    r.flags = flags;
  }

  // Interning slow path. Inline like the rest of the record path: the
  // executor (psc_runtime, which cannot link psc_obs) reaches it on a
  // kind's first occurrence.
  //
  // ActionKindId already dedups (name, node, peer) per run, so there is no
  // hash-map probe here — at million-machine scale a run interns one kind
  // per few events (kinds are per node/peer) and a (name, node, peer) map
  // was the single largest record-path cost. The entry is built straight
  // from the event and memoized by executor id.
  // Rebinding the recorder to a new executor may therefore append duplicate
  // (name, node, peer) rows to the kind table; records keep referencing
  // their original row, so decode and aggregation across binds are
  // unaffected.
  ExecMemo& intern_exec_kind(const TimedEvent& e) {
    const Action& a = e.action;
    PSC_CHECK(e.kind >= 0, "flight recorder got " << to_string(a)
                                                   << " without a kind id");
    const MsgClass cls = a.name.msg_class();
    const auto fk = static_cast<std::uint32_t>(kinds_.size());
    kinds_.push_back({name_sid(a.name), a.node, a.peer, cls});
    const auto kid = static_cast<std::size_t>(e.kind);
    if (kid >= exec_memo_.size()) exec_memo_.resize(kid + 1);
    ExecMemo& m = exec_memo_[kid];
    m.fk = fk;
    m.mkind = 0;
    m.cls = static_cast<std::uint8_t>(cls);
    return m;
  }

  // The string id of an action name, memoized by ActionName::id():
  // workloads use a handful of action names but intern thousands of (name,
  // node, peer) kinds. Name ids are process-wide, so the memo outlives
  // rebinds like the string table it points into.
  std::uint32_t name_sid(ActionName name) {
    if (name.id() >= name_sids_.size()) name_sids_.resize(name.id() + 1);
    std::uint32_t& sid = name_sids_[name.id()];
    if (sid == 0) sid = intern_string(name);  // 0 = name not seen yet
    return sid;
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

  std::size_t ring_cap_ = 0;
  std::uint64_t ring_mask_ = 0;
  std::vector<FlightRecord> ring_;
  std::uint64_t seq_ = 0;  // records ever written; the next record's seq

  // Kind/string intern tables. exec_memo_ maps the bound executor's
  // ActionKindId to a recorder kind id for O(1) hot lookups.
  std::uint64_t bound_uid_ = 0;
  std::vector<ExecMemo> exec_memo_;
  std::vector<FlightSnapshot::Kind> kinds_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint32_t> string_ids_;
  std::vector<std::uint32_t> name_sids_;  // ActionName::id() -> string id
};

}  // namespace psc
