// Static interference analysis over declared signatures (PSC2xx layer 1).
//
// Where lint_composition (lint.hpp) checks that a composition is *wired*
// correctly, this layer extracts the structure the wiring implies: an
// action-footprint graph whose nodes are the top-level machines and whose
// directed edges connect a machine's locally controlled kinds to the
// machines that declare them as inputs. Each node carries the quantitative
// bounds harvested from its model_traits() tree (the same adapter walk
// PSC006 uses): the Figure 1 relay window [d1, d2] for channels, the MMT
// boundmap upper bound ell, and the clock eps. Each edge carries its
// *lookahead* — the minimum real time between any input to the producer and
// this output crossing the edge (d1 for relays, 0 otherwise).
//
// Two consumers sit on top:
//
//   - bounds.hpp propagates the per-hop windows into end-to-end
//     certificates (shortest/widest path, Theorem 4.7 widening);
//   - synthesize_shards() colors the graph into K shards for the
//     conservative PDES executor of ROADMAP item 2, proving that every
//     cross-shard edge has lookahead >= the required floor (machines joined
//     by zero-lookahead edges are never separated).
//
// The build is O(machines + declared entries + edges): input entries are
// bucketed by kind name (mirroring the executor's routing index), so a
// 65,536-machine ring certifies in well under a second — this must never
// become the O(n^2) assembly path PR 7 removed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/machine.hpp"

namespace psc {

// One top-level machine of the composition, with its harvested bounds.
struct FootprintNode {
  const Machine* machine = nullptr;
  std::string name;
  // Relay window [relay_d1, relay_d2] (Figure 1), widened over all relay
  // members in the machine's tree; relay_d2 < 0 means "not a relay".
  Duration relay_d1 = -1;
  Duration relay_d2 = -1;
  // Largest MMT boundmap ell reported in the tree; negative when none.
  Duration ell = -1;
  // First clock eps reported in the tree; negative when unclocked.
  // (Within-tree disagreement is PSC005's business, not ours.)
  Duration eps = -1;

  bool is_relay() const { return relay_d2 >= 0; }
};

// Producer -> consumer: a kind `from` locally controls appears in `to`'s
// input signature. node/peer are the unified kind fields (wildcards
// resolved against the concrete side when one side declares them).
struct FootprintEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  std::string name;
  int node = kAnyNode;
  int peer = kAnyNode;
  // Minimum real time from any input of `from` to this output: relay_d1
  // for relays, 0 for everything else (an output may follow an input
  // instantly).
  Duration lookahead = 0;
};

struct InterferenceGraph {
  std::vector<FootprintNode> nodes;
  std::vector<FootprintEdge> edges;
  // Adjacency: node index -> indices into `edges`.
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::vector<std::size_t>> in;
  // Declared entries per node — kept so consumers (independence queries, the certificate probe) can key on
  // concrete kinds without re-walking declarations.
  std::vector<std::vector<SignatureDecl::Entry>> entries;
  std::unordered_map<const Machine*, std::size_t> index;

  // Provable independence: no declared entry of one machine unifies with an
  // entry of the other (they share no action kind, in any role).
  bool independent(std::size_t a, std::size_t b) const;
};

InterferenceGraph build_interference_graph(
    const std::vector<const Machine*>& machines);

// --- shard plan -----------------------------------------------------------

struct ShardPlan {
  int num_shards = 0;
  std::vector<int> shard_of;  // graph node index -> shard id in [0, K)
  std::vector<std::size_t> shard_sizes;
  std::size_t cut_edges = 0;
  // Minimum lookahead over cross-shard edges; -1 when no edge is cut.
  // This is the sound conservative time-window for the PDES executor:
  // shards may advance min_cut_lookahead past a barrier without
  // coordination.
  Duration min_cut_lookahead = -1;
};

// Colors the graph into (at most) k shards. Endpoints of zero-lookahead
// edges are union-find-merged first, so they always land in one shard and
// every cut edge contributes its full relay lookahead; clusters are then
// packed contiguously in machine order, balancing machine counts. When
// required_floor >= 0 and the plan's min cut lookahead falls below it,
// PSC207 is raised on `report`.
ShardPlan synthesize_shards(const InterferenceGraph& g, int k,
                            Duration required_floor = -1,
                            DiagnosticReport* report = nullptr);

// JSONL export/import of a shard plan (one summary line, then one
// assignment line per machine). read_shard_plan_jsonl inverts
// write_shard_plan_jsonl exactly (machine names are carried for humans but
// assignments key on the graph node index).
void write_shard_plan_jsonl(std::ostream& os, const ShardPlan& plan,
                            const InterferenceGraph& g);
ShardPlan read_shard_plan_jsonl(std::istream& is);

}  // namespace psc
