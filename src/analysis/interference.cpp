#include "analysis/interference.hpp"

#include <algorithm>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>

#include "util/check.hpp"

namespace psc {

namespace {

// Harvest the quantitative bounds from a machine's model_traits tree —
// the same member_at walk PSC005/PSC006 perform. Relay windows from
// multiple members widen (min lo, max hi); ell takes the largest reported
// bound; eps keeps the first (intra-tree disagreement is PSC005).
void harvest_bounds(FootprintNode& node) {
  std::vector<const Machine*> stack{node.machine};
  while (!stack.empty()) {
    const Machine* m = stack.back();
    stack.pop_back();
    const ModelTraits tr = m->model_traits();
    if (tr.relay_d2 >= 0) {
      if (node.relay_d2 < 0) {
        node.relay_d1 = tr.relay_d1 < 0 ? 0 : tr.relay_d1;
        node.relay_d2 = tr.relay_d2;
      } else {
        node.relay_d1 =
            std::min(node.relay_d1, tr.relay_d1 < 0 ? 0 : tr.relay_d1);
        node.relay_d2 = std::max(node.relay_d2, tr.relay_d2);
      }
    }
    if (tr.step_ell >= 0) node.ell = std::max(node.ell, tr.step_ell);
    if (tr.clock_eps >= 0 && node.eps < 0) node.eps = tr.clock_eps;
    for (std::size_t k = 0; k < m->member_count(); ++k) {
      const Machine* child = m->member_at(k);
      if (child != nullptr) stack.push_back(child);
    }
  }
}

struct OwnedEntry {
  SignatureDecl::Entry entry;
  std::size_t owner;
};

// Input entries bucketed by kind name, split by concrete node vs wildcard —
// the same shape as the executor's routing index, so local->input matching
// is proportional to real matches, not |locals| x |inputs|.
struct InputBucket {
  std::vector<std::size_t> any_node;                       // into `inputs`
  std::unordered_map<int, std::vector<std::size_t>> by_node;
};

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') os << '\\';
    os << ch;
  }
  os << '"';
}

// Minimal numeric field scraper for our own JSONL (inverts what
// write_shard_plan_jsonl emits; not a general JSON parser).
long long scrape_num(const std::string& line, const std::string& key,
                     long long fallback) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return fallback;
  return std::stoll(line.substr(pos + needle.size()));
}

// Union-find with path halving, for merging zero-lookahead edge endpoints.
struct Dsu {
  std::vector<std::size_t> parent;
  explicit Dsu(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

}  // namespace

bool InterferenceGraph::independent(std::size_t a, std::size_t b) const {
  if (a >= nodes.size() || b >= nodes.size() || a == b) return false;
  for (const SignatureDecl::Entry& ea : entries[a]) {
    for (const SignatureDecl::Entry& eb : entries[b]) {
      if (ea.overlaps(eb)) return false;
    }
  }
  return true;
}

InterferenceGraph build_interference_graph(
    const std::vector<const Machine*>& machines) {
  InterferenceGraph g;
  g.nodes.reserve(machines.size());
  g.entries.resize(machines.size());

  std::vector<OwnedEntry> inputs, locals;
  for (std::size_t i = 0; i < machines.size(); ++i) {
    FootprintNode node;
    node.machine = machines[i];
    node.name = machines[i]->name();
    harvest_bounds(node);
    g.index.emplace(machines[i], i);
    SignatureDecl decl;
    machines[i]->declare_signature(decl);
    g.entries[i] = decl.entries();
    for (const SignatureDecl::Entry& e : g.entries[i]) {
      (e.role == ActionRole::kInput ? inputs : locals)
          .push_back(OwnedEntry{e, i});
    }
    g.nodes.push_back(std::move(node));
  }

  // --- edges via the name-bucketed input index ----------------------------
  std::unordered_map<std::string, InputBucket> buckets;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    InputBucket& b = buckets[inputs[i].entry.name];
    if (inputs[i].entry.node == kAnyNode) {
      b.any_node.push_back(i);
    } else {
      b.by_node[inputs[i].entry.node].push_back(i);
    }
  }

  // One edge per (from, to, kind name); names per machine pair stay tiny,
  // so the dedup check is a short vector scan.
  std::unordered_map<std::uint64_t, std::vector<std::string>> edge_names;
  const auto add_edge = [&](std::size_t from, std::size_t to,
                            const SignatureDecl::Entry& local,
                            const SignatureDecl::Entry& input) {
    if (from == to) return;  // self-routing is a composite's inside
    const std::uint64_t key =
        (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint32_t>(to);
    std::vector<std::string>& names = edge_names[key];
    if (std::find(names.begin(), names.end(), local.name) != names.end()) {
      return;
    }
    names.push_back(local.name);
    FootprintEdge e;
    e.from = from;
    e.to = to;
    e.name = local.name;
    e.node = local.node != kAnyNode ? local.node : input.node;
    e.peer = local.peer != kAnyNode ? local.peer : input.peer;
    const FootprintNode& producer = g.nodes[from];
    e.lookahead =
        producer.is_relay() && producer.relay_d1 > 0 ? producer.relay_d1 : 0;
    g.edges.push_back(std::move(e));
  };

  for (const OwnedEntry& l : locals) {
    const auto it = buckets.find(l.entry.name);
    if (it == buckets.end()) continue;
    const InputBucket& b = it->second;
    const auto try_match = [&](std::size_t input_idx) {
      const OwnedEntry& in = inputs[input_idx];
      if (l.entry.overlaps(in.entry)) {
        add_edge(l.owner, in.owner, l.entry, in.entry);
      }
    };
    for (const std::size_t idx : b.any_node) try_match(idx);
    if (l.entry.node == kAnyNode) {
      for (const auto& [node, idxs] : b.by_node) {
        for (const std::size_t idx : idxs) try_match(idx);
      }
    } else {
      const auto bn = b.by_node.find(l.entry.node);
      if (bn != b.by_node.end()) {
        for (const std::size_t idx : bn->second) try_match(idx);
      }
    }
  }

  g.out.resize(g.nodes.size());
  g.in.resize(g.nodes.size());
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    g.out[g.edges[e].from].push_back(e);
    g.in[g.edges[e].to].push_back(e);
  }
  return g;
}

ShardPlan synthesize_shards(const InterferenceGraph& g, int k,
                            Duration required_floor,
                            DiagnosticReport* report) {
  ShardPlan plan;
  const std::size_t n = g.nodes.size();
  plan.num_shards = std::max(k, 1);
  plan.shard_of.assign(n, 0);
  plan.shard_sizes.assign(static_cast<std::size_t>(plan.num_shards), 0);
  if (n == 0) return plan;

  // Zero-lookahead edges must never be cut: merge their endpoints.
  Dsu dsu(n);
  for (const FootprintEdge& e : g.edges) {
    if (e.lookahead <= 0) dsu.unite(e.from, e.to);
  }

  // Clusters in first-appearance (machine add) order. Harness assemblies
  // add machines along the topology, so contiguous packing keeps rings and
  // grids in contiguous shards and the cuts on genuine channel edges.
  std::vector<int> cluster_of(n, -1);
  std::vector<std::size_t> cluster_sizes;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = dsu.find(i);
    if (cluster_of[root] < 0) {
      cluster_of[root] = static_cast<int>(cluster_sizes.size());
      cluster_sizes.push_back(0);
    }
    cluster_of[i] = cluster_of[root];
    ++cluster_sizes[static_cast<std::size_t>(cluster_of[i])];
  }

  // Pack clusters into shards contiguously, balancing machine counts.
  std::vector<int> shard_of_cluster(cluster_sizes.size(), 0);
  std::size_t remaining = n;
  int shard = 0;
  std::size_t filled = 0;
  for (std::size_t c = 0; c < cluster_sizes.size(); ++c) {
    const int shards_left = plan.num_shards - shard;
    const std::size_t target =
        (remaining + static_cast<std::size_t>(shards_left) - 1) /
        static_cast<std::size_t>(shards_left);
    shard_of_cluster[c] = shard;
    filled += cluster_sizes[c];
    remaining -= cluster_sizes[c];
    if (filled >= target && shard + 1 < plan.num_shards) {
      ++shard;
      filled = 0;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    plan.shard_of[i] =
        shard_of_cluster[static_cast<std::size_t>(cluster_of[i])];
    ++plan.shard_sizes[static_cast<std::size_t>(plan.shard_of[i])];
  }

  for (const FootprintEdge& e : g.edges) {
    if (plan.shard_of[e.from] == plan.shard_of[e.to]) continue;
    ++plan.cut_edges;
    if (plan.min_cut_lookahead < 0 ||
        e.lookahead < plan.min_cut_lookahead) {
      plan.min_cut_lookahead = e.lookahead;
    }
  }

  if (report != nullptr && required_floor >= 0 && plan.cut_edges > 0 &&
      plan.min_cut_lookahead < required_floor) {
    std::ostringstream msg;
    msg << "K=" << plan.num_shards << " plan has min cross-shard lookahead "
        << format_time(plan.min_cut_lookahead) << " < required "
        << format_time(required_floor);
    report->add(DiagCode::kShardLookaheadLow, msg.str());
  }
  return plan;
}

void write_shard_plan_jsonl(std::ostream& os, const ShardPlan& plan,
                            const InterferenceGraph& g) {
  os << "{\"type\":\"shard_plan\",\"shards\":" << plan.num_shards
     << ",\"machines\":" << plan.shard_of.size()
     << ",\"cut_edges\":" << plan.cut_edges
     << ",\"min_cut_lookahead_ns\":" << plan.min_cut_lookahead << "}\n";
  for (std::size_t i = 0; i < plan.shard_of.size(); ++i) {
    os << "{\"type\":\"shard_assign\",\"index\":" << i << ",\"machine\":";
    json_escape(os, i < g.nodes.size() ? g.nodes[i].name : "");
    os << ",\"shard\":" << plan.shard_of[i] << "}\n";
  }
}

ShardPlan read_shard_plan_jsonl(std::istream& is) {
  ShardPlan plan;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("\"type\":\"shard_plan\"") != std::string::npos) {
      plan.num_shards = static_cast<int>(scrape_num(line, "shards", 0));
      plan.shard_of.assign(
          static_cast<std::size_t>(scrape_num(line, "machines", 0)), 0);
      plan.cut_edges =
          static_cast<std::size_t>(scrape_num(line, "cut_edges", 0));
      plan.min_cut_lookahead = scrape_num(line, "min_cut_lookahead_ns", -1);
    } else if (line.find("\"type\":\"shard_assign\"") != std::string::npos) {
      const auto idx = static_cast<std::size_t>(scrape_num(line, "index", -1));
      if (idx < plan.shard_of.size()) {
        plan.shard_of[idx] = static_cast<int>(scrape_num(line, "shard", 0));
      }
    }
  }
  plan.shard_sizes.assign(
      static_cast<std::size_t>(std::max(plan.num_shards, 0)), 0);
  for (const int s : plan.shard_of) {
    if (s >= 0 && s < plan.num_shards) {
      ++plan.shard_sizes[static_cast<std::size_t>(s)];
    }
  }
  return plan;
}

}  // namespace psc
