// psc-flight: offline decoder for flight-recorder snapshots (obs/flight.hpp).
//
// Reads a binary .fly snapshot (written by FlightRecorder::dump, psc-sim
// --flight, or the dump-on-violation hook) and reconstructs the executor's
// TimedEvent stream, raw message uids included, so the recorded window
// flows into the same offline tooling as a live trace dump: psc-lint, the
// causal DAG, golden diffs.
//
//   psc-flight <snapshot.fly> [options]
//     --out=PATH     write the decoded trace to PATH (default: stdout)
//     --jsonl        emit JSON Lines (psc-lint's interchange form) instead
//                    of the plain-text trace format
//     --stats        print a snapshot summary (records, drops, kinds,
//                    strings, window) to stderr and skip the trace output
//                    unless --out was given explicitly
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/trace_io.hpp"
#include "obs/flight.hpp"
#include "util/check.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <snapshot.fly> [--out=PATH] [--jsonl] [--stats]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path;
  std::string out_path;
  bool jsonl = false;
  bool stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--jsonl") {
      jsonl = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "psc-flight: unknown flag " << arg << "\n";
      return usage(argv[0]);
    } else if (in_path.empty()) {
      in_path = arg;
    } else {
      std::cerr << "psc-flight: more than one input file\n";
      return usage(argv[0]);
    }
  }
  if (in_path.empty()) return usage(argv[0]);

  std::ifstream is(in_path, std::ios::binary);
  if (!is) {
    std::cerr << "psc-flight: cannot open " << in_path << "\n";
    return 1;
  }

  psc::FlightSnapshot snap;
  try {
    snap = psc::read_snapshot(is);
  } catch (const psc::CheckError& e) {
    std::cerr << "psc-flight: " << in_path << ": " << e.what() << "\n";
    return 1;
  }

  const psc::TimedTrace trace = psc::decode_snapshot(snap);

  if (stats) {
    std::cerr << "snapshot " << in_path << ": " << snap.records.size()
              << " records retained, " << snap.total_recorded
              << " recorded, " << snap.dropped << " dropped (ring"
              << " eviction), " << snap.kinds.size() << " kinds, "
              << snap.strings.size() << " strings\n";
    if (!snap.records.empty()) {
      std::cerr << "  window: seq [" << snap.records.front().seq << ", "
                << snap.records.back().seq << "], time ["
                << psc::format_time(snap.records.front().time) << ", "
                << psc::format_time(snap.records.back().time) << "]\n";
    }
  }

  const bool want_trace = !stats || !out_path.empty();
  if (want_trace) {
    std::ofstream of;
    std::ostream* os = &std::cout;
    if (!out_path.empty()) {
      of.open(out_path);
      if (!of) {
        std::cerr << "psc-flight: cannot write " << out_path << "\n";
        return 1;
      }
      os = &of;
    }
    if (jsonl) {
      psc::write_trace_jsonl(*os, trace);
    } else {
      psc::write_trace(*os, trace);
    }
    if (!os->good()) {
      std::cerr << "psc-flight: write failed\n";
      return 1;
    }
  }
  return 0;
}
