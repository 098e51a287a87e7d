#include "obs/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include "clock/discipline.hpp"
#include "obs/instrument.hpp"
#include "rw/harness.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace psc {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<Duration> parse_us_list(const std::string& s) {
  std::vector<Duration> out;
  for (const auto& v : split_list(s)) out.push_back(microseconds(std::stoll(v)));
  return out;
}

std::unique_ptr<DriftModel> make_drift(const std::string& name) {
  if (name == "perfect") return std::make_unique<PerfectDrift>();
  if (name == "offset+") return std::make_unique<OffsetDrift>(+1.0);
  if (name == "offset-") return std::make_unique<OffsetDrift>(-1.0);
  if (name == "zigzag") return std::make_unique<ZigzagDrift>(0.3);
  if (name == "random") {
    return std::make_unique<RandomDrift>(0.1, milliseconds(1));
  }
  if (name == "opposing") return std::make_unique<OpposingOffsetDrift>();
  if (name == "disciplined") {
    return std::make_unique<DisciplinedDrift>(DisciplineConfig{});
  }
  PSC_CHECK(false, "unknown drift model '" << name << "'");
  return nullptr;
}

double us(double ns) { return ns / 1000.0; }
double us(Duration ns) { return static_cast<double>(ns) / 1000.0; }

void put_cell_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

}  // namespace

SweepConfig parse_sweep_config(std::istream& is) {
  SweepConfig cfg;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    PSC_CHECK(eq != std::string::npos,
              "sweep config line " << lineno << ": expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (key == "nodes") {
      cfg.num_nodes = std::stoi(val);
    } else if (key == "ops_per_node") {
      cfg.ops_per_node = std::stoi(val);
    } else if (key == "write_fraction") {
      cfg.write_fraction = std::stod(val);
    } else if (key == "think_max_us") {
      cfg.think_max = microseconds(std::stoll(val));
    } else if (key == "horizon_ms") {
      cfg.horizon = milliseconds(std::stoll(val));
    } else if (key == "drift") {
      cfg.drift = val;
    } else if (key == "algos") {
      cfg.algos = split_list(val);
    } else if (key == "eps_us") {
      cfg.eps = parse_us_list(val);
    } else if (key == "delta_us") {
      cfg.delta = parse_us_list(val);
    } else if (key == "d1_us") {
      cfg.d1 = parse_us_list(val);
    } else if (key == "d2_us") {
      cfg.d2 = parse_us_list(val);
    } else if (key == "c_us") {
      cfg.c = parse_us_list(val);
    } else if (key == "ell_us") {
      cfg.ell = parse_us_list(val);
    } else if (key == "seeds") {
      cfg.seeds.clear();
      for (const auto& v : split_list(val)) cfg.seeds.push_back(std::stoull(v));
    } else if (key == "profile") {
      cfg.profile = std::stoi(val) != 0;
    } else {
      PSC_CHECK(false, "sweep config line " << lineno << ": unknown key '"
                                            << key << "'");
    }
  }
  PSC_CHECK(!cfg.algos.empty() && !cfg.eps.empty() && !cfg.delta.empty() &&
                !cfg.d1.empty() && !cfg.d2.empty() && !cfg.c.empty() &&
                !cfg.seeds.empty(),
            "sweep config: every grid axis needs at least one value");
  for (const std::string& a : cfg.algos) {
    PSC_CHECK(a == "L" || a == "S" || a == "baseline" || a == "mmt",
              "unknown algorithm '" << a << "' (L, S, baseline, mmt)");
    PSC_CHECK(a != "mmt" || !cfg.ell.empty(),
              "algorithm mmt requires a non-empty ell_us axis");
  }
  make_drift(cfg.drift);  // validate eagerly
  return cfg;
}

SweepConfig load_sweep_config(const std::string& path) {
  std::ifstream is(path);
  PSC_CHECK(is.good(), "cannot open sweep config " << path);
  return parse_sweep_config(is);
}

Duration SweepResult::min_slack() const {
  Duration m = kTimeMax;
  for (const CellResult& c : cells) m = std::min(m, c.min_slack);
  return m;
}

bool SweepResult::all_linearizable() const {
  return std::all_of(cells.begin(), cells.end(),
                     [](const CellResult& c) { return c.linearizable; });
}

namespace {

CellResult run_cell(const SweepConfig& sweep, const std::string& algo,
                    Duration eps, Duration delta, Duration d1, Duration d2,
                    Duration c, Duration ell, Profiler* prof) {
  CellResult cell;
  cell.algo = algo;
  cell.eps = eps;
  cell.delta = delta;
  cell.d1 = d1;
  cell.d2 = d2;
  cell.c = c;
  cell.ell = algo == "mmt" ? ell : -1;
  const auto drift = make_drift(sweep.drift);

  // One registry per cell: every seed's observatory probes aggregate into
  // the same slack histograms, and every seed's channel deliveries into the
  // channel.latency_ns histogram behind the cost table's chan p99 column.
  MetricsRegistry reg;
  ObsOptions oo;
  oo.registry = &reg;
  oo.slack = true;
  oo.profile = prof;  // sweep-wide aggregation (null unless cfg.profile)

  RwRunConfig rc;
  rc.num_nodes = sweep.num_nodes;
  rc.d1 = d1;
  rc.d2 = d2;
  rc.eps = eps;
  rc.c = c;
  rc.delta = delta;
  rc.super = algo != "L";
  rc.ops_per_node = sweep.ops_per_node;
  rc.think_max = sweep.think_max;
  rc.write_fraction = sweep.write_fraction;
  rc.horizon = sweep.horizon;
  rc.obs = &oo;

  Samples reads, writes;
  for (const std::uint64_t seed : sweep.seeds) {
    rc.seed = seed;
    RwRunResult run;
    if (algo == "L") {
      run = run_rw_timed(rc);
    } else if (algo == "S") {
      run = run_rw_clock(rc, *drift);
    } else if (algo == "baseline") {
      run = run_rw_sliced(rc, *drift);
    } else {
      run = run_rw_mmt(rc, *drift, ell, /*k=*/1);
    }
    for (const Duration l : latencies(run.ops, Operation::Kind::kRead)) {
      reads.add(static_cast<double>(l));
    }
    for (const Duration l : latencies(run.ops, Operation::Kind::kWrite)) {
      writes.add(static_cast<double>(l));
    }
    cell.linearizable =
        cell.linearizable && static_cast<bool>(check_linearizable(run.ops, rc.v0));
    cell.events += run.events.size();
    cell.min_slack = std::min(cell.min_slack, run.min_slack);
    cell.min_slack_ceps = std::min(cell.min_slack_ceps, run.min_slack_ceps);
    cell.min_slack_delivery =
        std::min(cell.min_slack_delivery, run.min_slack_delivery);
    cell.min_slack_thm47 = std::min(cell.min_slack_thm47, run.min_slack_thm47);
    cell.min_slack_mmt = std::min(cell.min_slack_mmt, run.min_slack_mmt);
    cell.slack_violations += run.slack_violations;
    ++cell.seeds;
  }
  cell.reads = reads.count();
  cell.writes = writes.count();
  cell.read_p50 = reads.percentile(50);
  cell.read_p99 = reads.percentile(99);
  cell.write_p50 = writes.percentile(50);
  cell.write_p99 = writes.percentile(99);
  if (const Histogram* chan = reg.find_histogram("channel.latency_ns")) {
    cell.chan_p99 = chan->p99();
  }

  if (algo == "L") {
    cell.bound_read = bound_read_timed(rc);
    cell.bound_write = bound_write_timed(rc);
  } else if (algo == "S") {
    cell.bound_read = bound_read_clock(rc);
    cell.bound_write = bound_write_clock(rc);
  } else if (algo == "baseline") {
    cell.bound_read = bound_read_sliced(rc);
    cell.bound_write = bound_write_sliced(rc);
  } else {
    // Theorem 5.2 with k = 1: d2' = d2 + 2 eps + ell.
    cell.bound_read = bound_read_clock(rc);
    cell.bound_write = bound_write_clock(rc) + ell;
  }
  return cell;
}

}  // namespace

SweepResult run_sweep(const SweepConfig& cfg) {
  SweepResult result;
  result.config = cfg;
  std::optional<Profiler> prof;
  if (cfg.profile) prof.emplace();
  for (const std::string& algo : cfg.algos) {
    const std::vector<Duration> ells =
        algo == "mmt" ? cfg.ell : std::vector<Duration>{-1};
    for (const Duration eps : cfg.eps) {
      for (const Duration delta : cfg.delta) {
        for (const Duration d1 : cfg.d1) {
          for (const Duration d2 : cfg.d2) {
            if (d1 > d2) continue;
            for (const Duration c : cfg.c) {
              for (const Duration ell : ells) {
                result.cells.push_back(run_cell(cfg, algo, eps, delta, d1,
                                                d2, c, ell,
                                                prof ? &*prof : nullptr));
              }
            }
          }
        }
      }
    }
  }
  if (prof.has_value()) {
    result.prof = prof->report();
    result.profiled = true;
  }
  return result;
}

void write_markdown(const SweepResult& result, std::ostream& os) {
  const SweepConfig& cfg = result.config;
  os << "Section 6.3 cost comparison — generated by `tools/psc-report` "
        "(latencies in µs over "
     << cfg.seeds.size() << " seed(s), " << cfg.num_nodes << " nodes, "
     << cfg.ops_per_node << " ops/node, drift `" << cfg.drift << "`).\n"
     << "Bounds: L = Lemma 6.1/6.2 (timed model), S = Theorem 6.5 "
        "(Simulation 1 on ε-clocks), baseline = [10] with u = 2ε. The S "
        "and mmt bounds are *clock-time* bounds — measured real-time "
        "latencies may exceed them by up to 2ε of accumulated drift "
        "(harness.hpp). `min slack` is the minimum signed distance to any "
        "governing bound observed by the bound-slack observatory; a "
        "negative value is a bound violation.\n\n";
  os << "| algo | ε | d1 | d2 | c | reads | read p50 | read p99 | read "
        "bound | writes | write p50 | write p99 | write bound | chan p99 "
        "| lin | min slack |\n";
  os << "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  const auto cell_us = [&os](double v) {
    if (std::isfinite(v)) {
      os << us(v);
    } else {
      os << "-";
    }
  };
  for (const CellResult& c : result.cells) {
    os << "| " << c.algo;
    if (c.ell >= 0) os << " (ℓ=" << us(c.ell) << ")";
    os << " | " << us(c.eps) << " | " << us(c.d1) << " | " << us(c.d2)
       << " | " << us(c.c) << " | " << c.reads << " | ";
    cell_us(c.read_p50);
    os << " | ";
    cell_us(c.read_p99);
    os << " | " << us(c.bound_read) << " | " << c.writes << " | ";
    cell_us(c.write_p50);
    os << " | ";
    cell_us(c.write_p99);
    os << " | " << us(c.bound_write) << " | ";
    cell_us(c.chan_p99);
    os << " | " << (c.linearizable ? "yes" : "NO") << " | ";
    if (c.min_slack < kTimeMax) {
      os << us(c.min_slack);
    } else {
      os << "-";
    }
    os << " |\n";
  }
  os << "\n";
  const Duration m = result.min_slack();
  os << "Min bound slack across the sweep: ";
  if (m < kTimeMax) {
    os << us(m) << " µs";
  } else {
    os << "not measured";
  }
  os << "; all cells linearizable: "
     << (result.all_linearizable() ? "yes" : "NO") << ".\n";
  if (result.profiled && result.prof.iterations > 0) {
    os << "\nExecutor self-time across the sweep (sampling microprofiler, "
          "direct per-phase measurement):\n\n```\n";
    write_prof_table(os, result.prof);
    os << "```\n";
  }
}

void write_json(const SweepResult& result, std::ostream& os) {
  for (const CellResult& c : result.cells) {
    os << "{\"bench\":\"psc_report\",\"algo\":\"" << c.algo
       << "\",\"nodes\":" << result.config.num_nodes
       << ",\"eps_ns\":" << c.eps << ",\"delta_ns\":" << c.delta
       << ",\"d1_ns\":" << c.d1 << ",\"d2_ns\":" << c.d2
       << ",\"c_ns\":" << c.c;
    if (c.ell >= 0) os << ",\"ell_ns\":" << c.ell;
    os << ",\"seeds\":" << c.seeds << ",\"events\":" << c.events
       << ",\"reads\":" << c.reads << ",\"writes\":" << c.writes
       << ",\"read_p50_ns\":";
    put_cell_number(os, c.read_p50);
    os << ",\"read_p99_ns\":";
    put_cell_number(os, c.read_p99);
    os << ",\"write_p50_ns\":";
    put_cell_number(os, c.write_p50);
    os << ",\"write_p99_ns\":";
    put_cell_number(os, c.write_p99);
    os << ",\"chan_p99_ns\":";
    put_cell_number(os, c.chan_p99);
    os << ",\"bound_read_ns\":" << c.bound_read
       << ",\"bound_write_ns\":" << c.bound_write << ",\"linearizable\":"
       << (c.linearizable ? "true" : "false");
    if (c.min_slack < kTimeMax) os << ",\"min_slack_ns\":" << c.min_slack;
    if (c.min_slack_ceps < kTimeMax) {
      os << ",\"min_slack_ceps_ns\":" << c.min_slack_ceps;
    }
    if (c.min_slack_delivery < kTimeMax) {
      os << ",\"min_slack_delivery_ns\":" << c.min_slack_delivery;
    }
    if (c.min_slack_thm47 < kTimeMax) {
      os << ",\"min_slack_thm47_ns\":" << c.min_slack_thm47;
    }
    if (c.min_slack_mmt < kTimeMax) {
      os << ",\"min_slack_mmt_ns\":" << c.min_slack_mmt;
    }
    os << ",\"slack_violations\":" << c.slack_violations << "}\n";
  }
}

std::string update_markdown_region(const std::string& text,
                                   const std::string& body) {
  const std::string begin = "<!-- psc-report:begin -->";
  const std::string end = "<!-- psc-report:end -->";
  const auto b = text.find(begin);
  PSC_CHECK(b != std::string::npos, "marker '" << begin << "' not found");
  const auto e = text.find(end, b);
  PSC_CHECK(e != std::string::npos, "marker '" << end << "' not found");
  std::string out = text.substr(0, b + begin.size());
  out += "\n";
  out += body;
  out += text.substr(e);
  return out;
}

}  // namespace psc
