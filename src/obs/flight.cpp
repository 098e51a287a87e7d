#include "obs/flight.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

// File layout (all integers little-endian; written on the little-endian
// targets this library supports and validated structurally on read):
//   byte[8]  magic "PSCFLT01" (the trailing "01" is the format version)
//   u32      sizeof(FlightRecord) — readers reject layout drift
//   u32      reserved (0)
//   u64      total_recorded, dropped, n_strings, n_kinds, n_records
//   strings  n_strings x (u32 length + raw bytes)
//   kinds    n_kinds x (u32 name_id, i32 node, i32 peer, u8 class, byte[3])
//   records  n_records x raw FlightRecord
constexpr char kMagic[8] = {'P', 'S', 'C', 'F', 'L', 'T', '0', '1'};

template <typename T>
void put_raw(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get_raw(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  PSC_CHECK(is.good(), "flight snapshot: truncated input");
  return v;
}

Value decode_value(const FlightSnapshot& snap, std::uint8_t tag,
                   std::int64_t slot) {
  switch (tag) {
    case FlightRecord::kInt:
      return Value{slot};
    case FlightRecord::kDouble:
      return Value{std::bit_cast<double>(slot)};
    case FlightRecord::kString: {
      const auto id = static_cast<std::uint64_t>(slot);
      PSC_CHECK(id < snap.strings.size(),
                "flight snapshot: string id " << id << " out of range");
      return Value{snap.strings[static_cast<std::size_t>(id)]};
    }
    default:
      return Value{};
  }
}

}  // namespace

FlightSnapshot FlightRecorder::snapshot() const {
  FlightSnapshot snap;
  snap.total_recorded = total_recorded();
  snap.dropped = dropped();
  snap.strings = strings_;
  snap.kinds = kinds_;
  snap.records.reserve(static_cast<std::size_t>(retained()));
  for (std::uint64_t i = seq_ - retained(); i < seq_; ++i) {
    snap.records.push_back(ring_[i & ring_mask_]);
  }
  return snap;
}

bool FlightRecorder::dump(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  write_snapshot(os, snapshot());
  return os.good();
}

void FlightRecorder::export_metrics(MetricsRegistry& reg) const {
  reg.gauge("flight.recorded").set(static_cast<double>(total_recorded()));
  reg.gauge("flight.dropped").set(static_cast<double>(dropped()));
}

void write_snapshot(std::ostream& os, const FlightSnapshot& snap) {
  os.write(kMagic, sizeof(kMagic));
  put_raw(os, static_cast<std::uint32_t>(sizeof(FlightRecord)));
  put_raw(os, std::uint32_t{0});
  put_raw(os, snap.total_recorded);
  put_raw(os, snap.dropped);
  put_raw(os, static_cast<std::uint64_t>(snap.strings.size()));
  put_raw(os, static_cast<std::uint64_t>(snap.kinds.size()));
  put_raw(os, static_cast<std::uint64_t>(snap.records.size()));
  for (const std::string& s : snap.strings) {
    put_raw(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  for (const FlightSnapshot::Kind& k : snap.kinds) {
    put_raw(os, k.name_id);
    put_raw(os, k.node);
    put_raw(os, k.peer);
    put_raw(os, static_cast<std::uint8_t>(k.cls));
    const char pad[3] = {0, 0, 0};
    os.write(pad, 3);
  }
  os.write(reinterpret_cast<const char*>(snap.records.data()),
           static_cast<std::streamsize>(snap.records.size() *
                                        sizeof(FlightRecord)));
}

FlightSnapshot read_snapshot(std::istream& is) {
  char magic[8] = {};
  is.read(magic, sizeof(magic));
  PSC_CHECK(is.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
            "flight snapshot: bad magic (not a PSCFLT01 file)");
  const auto record_size = get_raw<std::uint32_t>(is);
  PSC_CHECK(record_size == sizeof(FlightRecord),
            "flight snapshot: record size " << record_size << " != "
                                            << sizeof(FlightRecord)
                                            << " (format drift)");
  get_raw<std::uint32_t>(is);  // reserved
  FlightSnapshot snap;
  snap.total_recorded = get_raw<std::uint64_t>(is);
  snap.dropped = get_raw<std::uint64_t>(is);
  const auto n_strings = get_raw<std::uint64_t>(is);
  const auto n_kinds = get_raw<std::uint64_t>(is);
  const auto n_records = get_raw<std::uint64_t>(is);
  constexpr std::uint64_t kSane = std::uint64_t{1} << 32;
  PSC_CHECK(n_strings < kSane && n_kinds < kSane && n_records < kSane,
            "flight snapshot: implausible table sizes");
  snap.strings.reserve(static_cast<std::size_t>(n_strings));
  for (std::uint64_t i = 0; i < n_strings; ++i) {
    const auto len = get_raw<std::uint32_t>(is);
    std::string s(len, '\0');
    is.read(s.data(), len);
    PSC_CHECK(is.good(), "flight snapshot: truncated string table");
    snap.strings.push_back(std::move(s));
  }
  snap.kinds.reserve(static_cast<std::size_t>(n_kinds));
  for (std::uint64_t i = 0; i < n_kinds; ++i) {
    FlightSnapshot::Kind k;
    k.name_id = get_raw<std::uint32_t>(is);
    PSC_CHECK(k.name_id < snap.strings.size(),
              "flight snapshot: kind name id out of range");
    k.node = get_raw<std::int32_t>(is);
    k.peer = get_raw<std::int32_t>(is);
    k.cls = static_cast<MsgClass>(get_raw<std::uint8_t>(is));
    char pad[3];
    is.read(pad, 3);
    snap.kinds.push_back(k);
  }
  snap.records.resize(static_cast<std::size_t>(n_records));
  is.read(reinterpret_cast<char*>(snap.records.data()),
          static_cast<std::streamsize>(n_records * sizeof(FlightRecord)));
  PSC_CHECK(is.good(), "flight snapshot: truncated record section");
  return snap;
}

TimedTrace decode_snapshot(const FlightSnapshot& snap) {
  TimedTrace out;
  out.reserve(snap.records.size());
  for (const FlightRecord& r : snap.records) {
    PSC_CHECK(r.kind < snap.kinds.size(),
              "flight snapshot: record kind " << r.kind << " out of range");
    const FlightSnapshot::Kind& k = snap.kinds[r.kind];
    TimedEvent e;
    e.time = r.time;
    e.clock = r.clock;
    e.owner = r.owner;
    e.visible = (r.flags & FlightRecord::kVisible) != 0;
    e.action.name = snap.strings[k.name_id];
    e.action.node = k.node;
    e.action.peer = k.peer;
    e.action.args.reserve(r.nargs);
    for (std::size_t i = 0; i < r.nargs; ++i) {
      e.action.args.push_back(decode_value(snap, r.arg_tag[i], r.arg[i]));
    }
    if ((r.flags & FlightRecord::kHasMsg) != 0) {
      Message m;
      PSC_CHECK(r.mkind < snap.strings.size(),
                "flight snapshot: message kind id out of range");
      m.kind = snap.strings[r.mkind];
      m.uid = r.uid;
      m.clock_tag = r.tag;
      m.fields.reserve(r.nfields);
      for (std::size_t i = 0; i < r.nfields; ++i) {
        m.fields.push_back(decode_value(snap, r.field_tag[i], r.field[i]));
      }
      e.action.msg = std::move(m);
    }
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace psc
