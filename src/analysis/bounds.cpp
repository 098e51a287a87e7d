#include "analysis/bounds.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <queue>
#include <sstream>

namespace psc {

namespace {

constexpr Duration kInf = std::numeric_limits<Duration>::max();

// SCC ids of the zero-lookahead subgraph (iterative Tarjan). Components
// with >= 2 members are zero-lookahead cycles.
std::vector<int> zero_lookahead_sccs(const InterferenceGraph& g,
                                     std::vector<std::size_t>& scc_size) {
  const std::size_t n = g.nodes.size();
  std::vector<int> scc(n, -1);
  std::vector<int> index(n, -1), lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  struct Frame {
    std::size_t v;
    std::size_t next_out;  // position in g.out[v]
  };
  std::vector<Frame> frames;
  int next_index = 0;

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] >= 0) continue;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::size_t v = f.v;
      bool descended = false;
      while (f.next_out < g.out[v].size()) {
        const FootprintEdge& e = g.edges[g.out[v][f.next_out++]];
        if (e.lookahead > 0) continue;
        const std::size_t w = e.to;
        if (index[w] < 0) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) lowlink[v] = std::min(lowlink[v], index[w]);
      }
      if (descended) continue;
      if (lowlink[v] == index[v]) {
        const int id = static_cast<int>(scc_size.size());
        std::size_t size = 0;
        std::size_t w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc[w] = id;
          ++size;
        } while (w != v);
        scc_size.push_back(size);
      }
      frames.pop_back();
      if (!frames.empty()) {
        const std::size_t parent = frames.back().v;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }
  return scc;
}

// Single-source shortest path over the chosen hop weight. Weights are
// non-negative (windows are clamped at 0), so Dijkstra applies; `hops`
// reports the edge count of the winning path per node.
void dijkstra(const InterferenceGraph& g, const std::vector<HopCert>& hops,
              bool use_hi, std::size_t source, std::vector<Duration>& dist,
              std::vector<std::size_t>& hop_count) {
  const std::size_t n = g.nodes.size();
  dist.assign(n, kInf);
  hop_count.assign(n, 0);
  using Item = std::pair<Duration, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0;
  pq.emplace(0, source);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (d > dist[v]) continue;
    for (const std::size_t ei : g.out[v]) {
      const FootprintEdge& e = g.edges[ei];
      const BoundWindow& w = hops[ei].window;
      const Duration step = std::max<Duration>(use_hi ? w.hi : w.lo, 0);
      if (dist[v] > kInf - step) continue;
      const Duration nd = dist[v] + step;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        hop_count[e.to] = hop_count[v] + 1;
        pq.emplace(nd, e.to);
      }
    }
  }
}

}  // namespace

BoundCert certify_bounds(const InterferenceGraph& g,
                         const BoundCertOptions& opts) {
  BoundCert cert;
  cert.opts = opts;
  const std::size_t n = g.nodes.size();

  // Effective eps: explicit option wins, else the first eps the tree walk
  // harvested anywhere in the composition.
  cert.eps = opts.eps;
  if (cert.eps < 0) {
    for (const FootprintNode& node : g.nodes) {
      if (node.eps >= 0) {
        cert.eps = node.eps;
        break;
      }
    }
  }

  // --- hop certificates, PSC201, PSC205 ----------------------------------
  cert.hops.reserve(g.edges.size());
  for (const FootprintEdge& e : g.edges) {
    const FootprintNode& producer = g.nodes[e.from];
    HopCert hop;
    if (producer.is_relay()) {
      hop.window = {producer.relay_d1, producer.relay_d2};
    } else if (producer.ell >= 0) {
      hop.window = mmt_window(producer.ell);
    } else {
      hop.window = {0, 0};
    }
    if (hop.window.lo > hop.window.hi) {
      std::ostringstream msg;
      msg << "hop " << producer.name << " -> " << g.nodes[e.to].name << " ("
          << e.name << ") derives window [" << format_time(hop.window.lo)
          << ", " << format_time(hop.window.hi) << "]";
      cert.report.add(DiagCode::kVacuousHopWindow, msg.str(), producer.name);
    }
    hop.clock_window = cert.eps >= 0
                           ? thm47_window(hop.window.lo, hop.window.hi,
                                          cert.eps)
                           : hop.window;
    cert.hops.push_back(hop);
  }
  if (opts.d2 >= 0) {
    const BoundWindow declared = delivery_window(opts.d1, opts.d2);
    for (const FootprintNode& node : g.nodes) {
      if (node.is_relay() &&
          (node.relay_d1 < declared.lo || node.relay_d2 > declared.hi)) {
        std::ostringstream msg;
        msg << "relay window [" << format_time(node.relay_d1) << ", "
            << format_time(node.relay_d2) << "] escapes the declared ["
            << format_time(declared.lo) << ", " << format_time(declared.hi)
            << "]";
        cert.report.add(DiagCode::kCertContradictsDecl, msg.str(), node.name);
      }
    }
  }
  if (opts.ell >= 0) {
    for (const FootprintNode& node : g.nodes) {
      if (node.ell > opts.ell) {
        std::ostringstream msg;
        msg << "step bound ell " << format_time(node.ell)
            << " above the declared " << format_time(opts.ell);
        cert.report.add(DiagCode::kCertContradictsDecl, msg.str(), node.name);
      }
    }
  }

  // --- PSC202: zero-lookahead cycles through a relay ----------------------
  // Machines at one node may interact instantaneously (client <-> algorithm
  // pairs form legitimate zero-lookahead cycles); the
  // pathology is a *network* cycle: a relay inside a zero-lookahead SCC
  // means influence can circulate through channels in zero time, so no
  // conservative time window exists.
  {
    std::vector<std::size_t> scc_size;
    const std::vector<int> scc = zero_lookahead_sccs(g, scc_size);
    std::vector<bool> reported(scc_size.size(), false);
    for (std::size_t v = 0; v < n; ++v) {
      const auto id = static_cast<std::size_t>(scc[v]);
      if (scc_size[id] < 2 || reported[id] || !g.nodes[v].is_relay()) {
        continue;
      }
      reported[id] = true;
      std::ostringstream msg;
      msg << "relay inside a zero-lookahead cycle of " << scc_size[id]
          << " machines (no conservative time window exists)";
      cert.report.add(DiagCode::kZeroLookaheadCycle, msg.str(),
                      g.nodes[v].name);
    }
  }

  // --- resolve sources, reachability --------------------------------------
  if (opts.sources.empty()) {
    if (n > 0) cert.sources.push_back(0);
  } else {
    for (std::size_t v = 0; v < n; ++v) {
      for (const std::string& s : opts.sources) {
        if (g.nodes[v].name.compare(0, s.size(), s) == 0) {
          cert.sources.push_back(v);
          break;
        }
      }
    }
  }
  std::vector<bool> reachable(n, false);
  {
    std::vector<std::size_t> queue(cert.sources.begin(), cert.sources.end());
    for (const std::size_t s : queue) reachable[s] = true;
    while (!queue.empty()) {
      const std::size_t v = queue.back();
      queue.pop_back();
      for (const std::size_t ei : g.out[v]) {
        const std::size_t w = g.edges[ei].to;
        if (!reachable[w]) {
          reachable[w] = true;
          queue.push_back(w);
        }
      }
    }
  }

  // --- PSC204 over the certified region -----------------------------------
  Duration path_eps = opts.eps;
  const Machine* eps_setter = nullptr;
  Duration max_ell = -1;
  std::size_t reachable_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!reachable[v]) continue;
    ++reachable_count;
    const FootprintNode& node = g.nodes[v];
    if (node.eps >= 0) {
      if (path_eps < 0) {
        path_eps = node.eps;
        eps_setter = node.machine;
      } else if (node.eps != path_eps) {
        std::ostringstream msg;
        msg << "clock eps " << format_time(node.eps)
            << " on a certified path that"
            << (opts.eps >= 0
                    ? " requires "
                    : (eps_setter != nullptr
                           ? " (first seen at " + eps_setter->name() +
                                 ") uses "
                           : " uses "))
            << format_time(path_eps);
        cert.report.add(DiagCode::kEpsInconsistentPath, msg.str(), node.name);
      }
    }
    if (node.ell > max_ell) max_ell = node.ell;
  }

  // --- path certificates ---------------------------------------------------
  std::vector<Duration> dist_lo, dist_hi;
  std::vector<std::size_t> hops_lo, hops_hi;
  for (const std::size_t s : cert.sources) {
    dijkstra(g, cert.hops, /*use_hi=*/false, s, dist_lo, hops_lo);
    dijkstra(g, cert.hops, /*use_hi=*/true, s, dist_hi, hops_hi);
    for (std::size_t v = 0; v < n; ++v) {
      if (v == s || dist_hi[v] == kInf) continue;
      PathCert p;
      p.source = s;
      p.sink = v;
      p.window = {dist_lo[v], dist_hi[v]};
      p.hops = hops_hi[v];
      if (max_ell >= 0 && cert.eps >= 0) {
        p.mmt_shift = static_cast<Duration>(p.hops) * max_ell +
                      2 * cert.eps + 3 * max_ell;
      }
      cert.paths.push_back(p);
    }
  }

  // --- PSC208: coverage note ----------------------------------------------
  {
    std::size_t relay_edges = 0;
    for (const FootprintEdge& e : g.edges) {
      if (g.nodes[e.from].is_relay()) ++relay_edges;
    }
    std::ostringstream msg;
    msg << relay_edges << "/" << g.edges.size() << " relay edges, "
        << cert.paths.size() << " path certificate(s) from "
        << cert.sources.size() << " source(s) covering " << reachable_count
        << " machine(s)";
    cert.report.add(DiagCode::kCertCoverage, msg.str());
  }
  return cert;
}

void write_bound_cert_jsonl(std::ostream& os, const BoundCert& cert,
                            const InterferenceGraph& g) {
  os << "{\"type\":\"bound_cert\",\"machines\":" << g.nodes.size()
     << ",\"edges\":" << g.edges.size()
     << ",\"sources\":" << cert.sources.size()
     << ",\"eps_ns\":" << cert.eps
     << ",\"declared_d1_ns\":" << cert.opts.d1
     << ",\"declared_d2_ns\":" << cert.opts.d2 << "}\n";
  for (std::size_t i = 0; i < cert.hops.size(); ++i) {
    const FootprintEdge& e = g.edges[i];
    const HopCert& hop = cert.hops[i];
    os << "{\"type\":\"hop\",\"edge\":" << i << ",\"from\":\""
       << g.nodes[e.from].name << "\",\"to\":\"" << g.nodes[e.to].name
       << "\",\"kind\":\"" << e.name << "\",\"node\":" << e.node
       << ",\"peer\":" << e.peer << ",\"lo_ns\":" << hop.window.lo
       << ",\"hi_ns\":" << hop.window.hi
       << ",\"clock_lo_ns\":" << hop.clock_window.lo
       << ",\"clock_hi_ns\":" << hop.clock_window.hi
       << ",\"lookahead_ns\":" << e.lookahead << "}\n";
  }
  for (const PathCert& p : cert.paths) {
    os << "{\"type\":\"path\",\"source\":\"" << g.nodes[p.source].name
       << "\",\"sink\":\"" << g.nodes[p.sink].name
       << "\",\"lo_ns\":" << p.window.lo << ",\"hi_ns\":" << p.window.hi
       << ",\"hops\":" << p.hops << ",\"mmt_shift_ns\":" << p.mmt_shift
       << "}\n";
  }
  cert.report.write_jsonl(os);
}

// --- CertificateProbe -----------------------------------------------------

CertificateProbe::CertificateProbe(BoundCertOptions bopts,
                                   CertProbeOptions popts)
    : bopts_(std::move(bopts)), popts_(std::move(popts)) {}

void CertificateProbe::harvest(const std::vector<const Machine*>& machines) {
  const InterferenceGraph g = build_interference_graph(machines);
  cert_ = certify_bounds(g, bopts_);
  report_ = cert_.report;
  by_edge_.clear();
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    const FootprintEdge& e = g.edges[i];
    if (!g.nodes[e.from].is_relay() || e.node < 0 || e.peer < 0) continue;
    const std::uint64_t key = edge_key(e.node, e.peer);
    const auto [it, fresh] = by_edge_.try_emplace(
        key, EdgeCert{cert_.hops[i].window, cert_.hops[i].clock_window,
                      cert_.eps >= 0});
    if (!fresh) {
      // Parallel relays over one (receiver, sender) pair: take the union —
      // the certificate must admit either route.
      EdgeCert& ec = it->second;
      ec.real.lo = std::min(ec.real.lo, cert_.hops[i].window.lo);
      ec.real.hi = std::max(ec.real.hi, cert_.hops[i].window.hi);
      ec.clock.lo = std::min(ec.clock.lo, cert_.hops[i].clock_window.lo);
      ec.clock.hi = std::max(ec.clock.hi, cert_.hops[i].clock_window.hi);
    }
  }
  harvested_ = true;
}

void CertificateProbe::emit(DiagCode code, std::string message,
                            std::string machine, Time time) {
  if (popts_.on_violation && default_severity(code) == Severity::kError) {
    popts_.on_violation(Diagnostic{code, default_severity(code), message,
                                   machine, time});
  }
  report_.add(code, std::move(message), std::move(machine), time);
}

void CertificateProbe::on_event(const TimedEvent& e, const Machine&) {
  const Delivery& d = meter_.measure(e).delivery;
  // Unmatched deliveries are PSC107's business.
  if (d.leg == Delivery::Leg::kNone || d.leg == Delivery::Leg::kUnmatched) {
    return;
  }
  const auto it = by_edge_.find(edge_key(e.action.node, e.action.peer));
  if (it == by_edge_.end()) return;
  const EdgeCert& ec = it->second;
  if (d.leg == Delivery::Leg::kRelease) {
    // Simulation 1 release: clock-time latency vs the Thm 4.7 widened
    // per-edge window (tighter than the system-wide PSC104 band when the
    // edge's harvested [d1, d2] is tighter than the declared one).
    if (!ec.has_clock || ec.clock.contains(d.latency, kGridTolerance)) return;
    std::ostringstream msg;
    msg << "uid " << d.uid << " clock-time latency " << format_time(d.latency)
        << " on " << e.action.peer << " -> " << e.action.node
        << " outside its certificate [" << format_time(ec.clock.lo) << ", "
        << format_time(ec.clock.hi) << "]";
    emit(DiagCode::kOutsideCertificate, msg.str(), e.action.name.str(), e.time);
    return;
  }
  // Physical delivery (timed RECVMSG or Simulation 1 ERECVMSG): real
  // latency vs the derived per-edge window.
  if (ec.real.contains(d.latency, kGridTolerance)) return;
  std::ostringstream msg;
  msg << "uid " << d.uid << " crossed " << e.action.peer << " -> "
      << e.action.node << " in " << format_time(d.latency)
      << ", outside its certificate [" << format_time(ec.real.lo) << ", "
      << format_time(ec.real.hi) << "]";
  emit(DiagCode::kOutsideCertificate, msg.str(), e.action.name.str(), e.time);
}

}  // namespace psc
