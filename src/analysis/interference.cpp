#include "analysis/interference.hpp"

#include <algorithm>
#include <string>

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
  std::unordered_map<ActionName, InputBucket> buckets;
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
  std::unordered_map<std::uint64_t, std::vector<ActionName>> edge_names;
  const auto add_edge = [&](std::size_t from, std::size_t to,
                            const SignatureDecl::Entry& local,
                            const SignatureDecl::Entry& input) {
    if (from == to) return;  // self-routing is a composite's inside
    const std::uint64_t key =
        (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint32_t>(to);
    std::vector<ActionName>& names = edge_names[key];
    if (std::find(names.begin(), names.end(), local.name) != names.end()) {
      return;
    }
    names.push_back(local.name);
    FootprintEdge e;
    e.from = from;
    e.to = to;
    e.name = local.name.str();
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

}  // namespace psc
