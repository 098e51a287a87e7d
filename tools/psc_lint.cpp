// psc-lint: offline model-conformance analyzer CLI.
//
// Two modes:
//
//   --trace=PATH   Layer 2: replays a trace recorded by psc-sim (text or
//                  JSONL) against the paper's quantitative predicates —
//                  C_eps drift, [d1, d2] delivery, Simulation 1's release
//                  rule, Theorem 4.7's widened window, the MMT boundmap,
//                  per-node order preservation — and reports PSC1xx
//                  diagnostics.
//
//   --certify=SCENARIO   Layer 3: assembles one of the shipped harness
//                  compositions (flood | rw-clock | queue) *without running
//                  it*, runs the PSC0xx composition lint plus the PSC2xx
//                  bound-certificate derivation (interference graph, per-hop
//                  and source->sink windows), and reports. --jsonl dumps
//                  the certificate.
//
// Usage:
//   psc-lint --trace=PATH [--eps_us=N] [--d1_us=N] [--d2_us=N] [--ell_us=N]
//            [--nodes=N] [--slack_ns=N] [--jsonl=PATH]
//   psc-lint --certify=flood|rw-clock|queue [--nodes=N] [--d1_us=N]
//            [--d2_us=N] [--eps_us=N] [--ell_us=N] [--source=NAME]
//            [--seed=N] [--jsonl=PATH]
//
// Checks whose parameters are omitted are skipped; a flag the mode does not
// know is a usage failure. JSONL output starts with a versioned header line
// ({"tool":...,"format":...,"ranges":...}) so dumps are self-describing for
// the regression corpus. Exit status: 0 clean (or warnings/notes only),
// 1 error-severity diagnostics, 2 usage/IO failure.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "analysis/bounds.hpp"
#include "analysis/interference.hpp"
#include "analysis/lint.hpp"
#include "analysis/trace_check.hpp"
#include "algos/flood.hpp"
#include "core/trace_io.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "rw/queue.hpp"
#include "runtime/executor.hpp"
#include "runtime/system.hpp"
#include "transform/clock_system.hpp"
#include "util/check.hpp"

using namespace psc;

namespace {

int usage() {
  std::cerr
      << "usage: psc-lint --trace=PATH [--eps_us=N] [--d1_us=N] [--d2_us=N]\n"
         "                [--ell_us=N] [--nodes=N] [--slack_ns=N]\n"
         "                [--jsonl=PATH]\n"
         "       psc-lint --certify=flood|rw-clock|queue [--nodes=N]\n"
         "                [--d1_us=N] [--d2_us=N] [--eps_us=N] [--ell_us=N]\n"
         "                [--source=NAME] [--seed=N] [--jsonl=PATH]\n";
  return 2;
}

// Each mode's flags, the mode's own key included.
constexpr std::string_view kTraceKeys[] = {
    "trace", "eps_us", "d1_us", "d2_us", "ell_us", "nodes", "slack_ns",
    "jsonl"};
constexpr std::string_view kCertifyKeys[] = {
    "certify", "nodes", "d1_us", "d2_us", "eps_us", "ell_us", "source",
    "seed", "jsonl"};

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int k = 1; k < argc; ++k) {
    std::string s = argv[k];
    if (s.rfind("--", 0) != 0) {
      std::cerr << "bad argument: " << s << "\n";
      std::exit(usage());
    }
    const auto eq = s.find('=');
    if (eq == std::string::npos) {
      args.insert_or_assign(s.substr(2), std::string("1"));
    } else {
      args.insert_or_assign(s.substr(2, eq - 2), s.substr(eq + 1));
    }
  }
  return args;
}

// A flag outside the mode's list is a usage failure, not silently dropped.
void require_known(const std::map<std::string, std::string>& args,
                   std::span<const std::string_view> known) {
  for (const auto& [key, value] : args) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::cerr << "psc-lint: unknown flag --" << key << "\n";
      std::exit(usage());
    }
  }
}

std::int64_t geti(const std::map<std::string, std::string>& a,
                  const std::string& key, std::int64_t def) {
  auto it = a.find(key);
  return it == a.end() ? def : std::stoll(it->second);
}

// --- certify mode ---------------------------------------------------------

struct CertifyConfig {
  int nodes = 4;
  Duration d1 = microseconds(20);
  Duration d2 = microseconds(300);
  Duration eps = microseconds(50);
  Duration ell = -1;
  std::uint64_t seed = 1;
};

std::vector<std::shared_ptr<const ClockTrajectory>> flat_trajectories(
    int n, Duration eps) {
  // Static certification never advances the clocks; only eps matters.
  std::vector<std::shared_ptr<const ClockTrajectory>> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(std::make_shared<const ClockTrajectory>(
        std::vector<Breakpoint>{{0, 0}}, eps));
  }
  return out;
}

// The same assemblies psc-sim runs (flood ring / rw complete graph under
// Simulation 1 / shared-queue), built into an executor that is never run.
void assemble(const std::string& scenario, const CertifyConfig& cfg,
              Executor& exec) {
  ChannelConfig cc;
  cc.d1 = cfg.d1;
  cc.d2 = cfg.d2;
  cc.seed = cfg.seed;
  if (scenario == "flood") {
    const Graph g = Graph::ring(cfg.nodes);
    add_timed_system(exec, g, cc,
                     make_flood_nodes(g, 0, 42, g.n, cfg.d2, microseconds(1)));
    return;
  }
  if (scenario == "rw-clock") {
    std::vector<RwClient*> handles;
    auto clients = make_clients(cfg.nodes, ClientOptions{}, cfg.seed ^ 0xc7,
                                &handles);
    for (auto& c : clients) exec.add_owned(std::move(c));
    RwParams base;
    base.num_nodes = cfg.nodes;
    base.d2_prime = timed_d2(cfg.d2, cfg.eps);
    base.two_eps = 2 * cfg.eps;
    add_clock_system(exec, Graph::complete_with_self_loops(cfg.nodes), cc,
                     make_rw_algorithms(cfg.nodes, base),
                     flat_trajectories(cfg.nodes, cfg.eps));
    return;
  }
  if (scenario == "queue") {
    for (int i = 0; i < cfg.nodes; ++i) {
      QueueClient::Options o;
      o.node = i;
      o.seed = cfg.seed + static_cast<std::uint64_t>(i);
      exec.add_owned(std::make_unique<QueueClient>(o));
    }
    add_clock_system(exec, Graph::complete_with_self_loops(cfg.nodes), cc,
                     make_queue_nodes(cfg.nodes, timed_d2(cfg.d2, cfg.eps),
                                      /*delta=*/1),
                     flat_trajectories(cfg.nodes, cfg.eps));
    return;
  }
  std::cerr << "psc-lint: unknown --certify scenario '" << scenario << "'\n";
  std::exit(usage());
}

int run_certify(const std::map<std::string, std::string>& args,
                const std::string& scenario) {
  CertifyConfig cfg;
  cfg.nodes = static_cast<int>(geti(args, "nodes", cfg.nodes));
  const std::int64_t d1_us = geti(args, "d1_us", -1);
  const std::int64_t d2_us = geti(args, "d2_us", -1);
  const std::int64_t eps_us = geti(args, "eps_us", -1);
  const std::int64_t ell_us = geti(args, "ell_us", -1);
  if (d1_us >= 0) cfg.d1 = microseconds(d1_us);
  if (d2_us >= 0) cfg.d2 = microseconds(d2_us);
  if (eps_us >= 0) cfg.eps = microseconds(eps_us);
  if (ell_us >= 0) cfg.ell = microseconds(ell_us);
  cfg.seed = static_cast<std::uint64_t>(geti(args, "seed", 1));

  Executor exec({.horizon = seconds(60), .seed = cfg.seed});
  assemble(scenario, cfg, exec);
  const std::vector<const Machine*> machines = exec.composition();

  // Layer 1: the PSC0xx wiring lint over the same composition.
  LintOptions lint_opts;
  if (scenario != "flood") lint_opts.eps = cfg.eps;
  const DiagnosticReport wiring = lint_composition(machines, lint_opts);

  // Layer 3: interference graph + bound certificates.
  const InterferenceGraph graph = build_interference_graph(machines);
  BoundCertOptions bopts;
  bopts.d1 = cfg.d1;
  bopts.d2 = cfg.d2;
  if (scenario != "flood") bopts.eps = cfg.eps;
  if (cfg.ell >= 0) bopts.ell = cfg.ell;
  const auto src_it = args.find("source");
  if (src_it != args.end()) bopts.sources.push_back(src_it->second);
  const BoundCert cert = certify_bounds(graph, bopts);

  const auto jsonl_it = args.find("jsonl");
  if (jsonl_it != args.end()) {
    std::ofstream out(jsonl_it->second);
    if (!out) {
      std::cerr << "psc-lint: cannot write " << jsonl_it->second << "\n";
      return 2;
    }
    write_jsonl_header(out, "psc-lint", "bound-cert");
    write_bound_cert_jsonl(out, cert, graph);
    wiring.write_jsonl(out);
  }

  std::cout << "psc-lint: certified " << scenario << " (" << cfg.nodes
            << " nodes, " << graph.nodes.size() << " machines, "
            << graph.edges.size() << " edges): " << cert.paths.size()
            << " path certificate(s)\n";
  bool clean = true;
  for (const DiagnosticReport* r : {&wiring, &cert.report}) {
    if (!r->empty()) std::cout << r->to_text();
    clean = clean && !r->has_errors();
  }
  if (clean && wiring.empty() && cert.report.empty()) {
    std::cout << "clean: no diagnostics\n";
  }
  return clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  const auto certify_it = args.find("certify");
  if (certify_it != args.end()) {
    require_known(args, kCertifyKeys);
    return run_certify(args, certify_it->second);
  }
  const auto trace_it = args.find("trace");
  if (trace_it == args.end()) return usage();
  require_known(args, kTraceKeys);

  TimedTrace trace;
  try {
    std::ifstream in(trace_it->second);
    if (!in) {
      std::cerr << "psc-lint: cannot open " << trace_it->second << "\n";
      return 2;
    }
    trace = read_trace_any(in);
  } catch (const CheckError& e) {
    std::cerr << "psc-lint: failed to parse " << trace_it->second << ": "
              << e.what() << "\n";
    return 2;
  }

  TraceCheckOptions opts;
  const std::int64_t eps_us = geti(args, "eps_us", -1);
  const std::int64_t d1_us = geti(args, "d1_us", -1);
  const std::int64_t d2_us = geti(args, "d2_us", -1);
  const std::int64_t ell_us = geti(args, "ell_us", -1);
  if (eps_us >= 0) opts.eps = microseconds(eps_us);
  if (d1_us >= 0) opts.d1 = microseconds(d1_us);
  if (d2_us >= 0) opts.d2 = microseconds(d2_us);
  if (ell_us >= 0) opts.ell = microseconds(ell_us);
  opts.num_nodes = static_cast<int>(geti(args, "nodes", 0));
  opts.slack = geti(args, "slack_ns", opts.slack);

  const DiagnosticReport report = check_trace(trace, opts);

  const auto jsonl_it = args.find("jsonl");
  if (jsonl_it != args.end()) {
    std::ofstream out(jsonl_it->second);
    if (!out) {
      std::cerr << "psc-lint: cannot write " << jsonl_it->second << "\n";
      return 2;
    }
    write_jsonl_header(out, "psc-lint", "psc-diagnostics");
    report.write_jsonl(out);
  }

  std::cout << "psc-lint: " << trace.size() << " event(s) checked\n";
  if (report.empty()) {
    std::cout << "clean: no diagnostics\n";
    return 0;
  }
  std::cout << report.to_text();
  return report.has_errors() ? 1 : 0;
}
