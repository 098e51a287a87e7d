#include "analysis/lint.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

namespace psc {

namespace {

std::string field_str(int v) {
  if (v == kAnyNode) return "*";
  if (v == kNoNode) return "-";
  return std::to_string(v);
}

std::string kind_str(const SignatureDecl::Entry& e) {
  return e.name + "(" + field_str(e.node) + "," + field_str(e.peer) + ")";
}

struct DeclaredEntry {
  SignatureDecl::Entry entry;
  const Machine* machine;
};

// Name-keyed index over declared entries so producer/consumer matching is
// near-linear in the composition size instead of O(entries^2). Entries with a
// concrete node land in per-node sub-buckets; wildcard-node entries go in a
// side list that every lookup must also consult.
struct EntryIndex {
  struct Bucket {
    std::vector<std::size_t> any_node;
    std::unordered_map<int, std::vector<std::size_t>> by_node;
    std::size_t first = 0;  // earliest entry index carrying this name
  };
  std::unordered_map<std::string, Bucket> by_name;

  explicit EntryIndex(const std::vector<DeclaredEntry>& entries) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const SignatureDecl::Entry& e = entries[i].entry;
      auto [it, inserted] = by_name.try_emplace(e.name);
      if (inserted) it->second.first = i;
      if (e.node == kAnyNode) {
        it->second.any_node.push_back(i);
      } else {
        it->second.by_node[e.node].push_back(i);
      }
    }
  }

  // Candidate entries whose node field can unify with `probe`'s; the name
  // match is implied by the bucket. Returns nullptr when the name is absent.
  const Bucket* bucket(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : &it->second;
  }

  // Invoke fn(index) for every entry that could unify with `probe` on the
  // node field (peer unification is the caller's job). Stops early when fn
  // returns true; returns whether any call did.
  template <typename Fn>
  bool any_unifiable(const SignatureDecl::Entry& probe, Fn fn) const {
    const Bucket* b = bucket(probe.name);
    if (b == nullptr) return false;
    if (probe.node == kAnyNode) {
      for (const auto& [node, vec] : b->by_node) {
        for (std::size_t i : vec) {
          if (fn(i)) return true;
        }
      }
    } else {
      auto it = b->by_node.find(probe.node);
      if (it != b->by_node.end()) {
        for (std::size_t i : it->second) {
          if (fn(i)) return true;
        }
      }
    }
    for (std::size_t i : b->any_node) {
      if (fn(i)) return true;
    }
    return false;
  }
};

}  // namespace

DiagnosticReport lint_composition(const std::vector<const Machine*>& machines,
                                  const LintOptions& opts) {
  DiagnosticReport report;

  // --- collect declarations ------------------------------------------------
  std::vector<DeclaredEntry> inputs, locals;
  for (const Machine* m : machines) {
    SignatureDecl decl;
    m->declare_signature(decl);
    for (const SignatureDecl::Entry& e : decl.entries()) {
      (e.role == ActionRole::kInput ? inputs : locals)
          .push_back(DeclaredEntry{e, m});
    }
  }

  // --- PSC001: a kind locally controlled by two machines -------------------
  // Candidate pairs share a name and a unifiable node field, so only probe
  // within each name bucket: concrete-node sub-buckets pairwise, plus every
  // wildcard-node entry against the rest of its bucket. Pairs are collected
  // and sorted so the report order matches the old full pairwise scan.
  const EntryIndex local_index(locals);
  std::vector<std::pair<std::size_t, std::size_t>> claimed_pairs;
  auto consider_pair = [&](std::size_t i, std::size_t j) {
    if (i > j) std::swap(i, j);
    if (locals[i].machine == locals[j].machine) return;
    if (!locals[i].entry.overlaps(locals[j].entry)) return;
    claimed_pairs.emplace_back(i, j);
  };
  for (const auto& [name, bucket] : local_index.by_name) {
    for (const auto& [node, vec] : bucket.by_node) {
      for (std::size_t i = 0; i < vec.size(); ++i) {
        for (std::size_t j = i + 1; j < vec.size(); ++j) {
          consider_pair(vec[i], vec[j]);
        }
      }
      for (std::size_t a : bucket.any_node) {
        for (std::size_t i : vec) consider_pair(a, i);
      }
    }
    for (std::size_t i = 0; i < bucket.any_node.size(); ++i) {
      for (std::size_t j = i + 1; j < bucket.any_node.size(); ++j) {
        consider_pair(bucket.any_node[i], bucket.any_node[j]);
      }
    }
  }
  std::sort(claimed_pairs.begin(), claimed_pairs.end());
  for (const auto& [i, j] : claimed_pairs) {
    std::ostringstream msg;
    msg << kind_str(locals[i].entry) << " claimed by "
        << locals[i].machine->name() << " and " << locals[j].machine->name();
    report.add(DiagCode::kMultiplyClaimed, msg.str(),
               locals[i].machine->name());
  }

  // --- PSC002/PSC004: inputs nothing can produce ----------------------------
  for (const DeclaredEntry& in : inputs) {
    // A same-machine local entry shadows the input (composition merges
    // re-declare routed-internally interfaces); that is a producer.
    bool produced =
        local_index.any_unifiable(in.entry, [&](std::size_t i) {
          return locals[i].entry.overlaps(in.entry);
        });
    if (produced) continue;
    std::ostringstream msg;
    const EntryIndex::Bucket* same_name = local_index.bucket(in.entry.name);
    if (same_name != nullptr) {
      const DeclaredEntry& l = locals[same_name->first];
      msg << in.machine->name() << " consumes " << kind_str(in.entry)
          << " but " << l.machine->name() << " produces " << kind_str(l.entry);
      report.add(DiagCode::kEndpointMismatch, msg.str(), in.machine->name());
    } else {
      msg << "no machine produces " << kind_str(in.entry);
      report.add(DiagCode::kNoProducer, msg.str(), in.machine->name());
    }
  }

  // --- PSC003: outputs nothing consumes (note) -----------------------------
  const EntryIndex input_index(inputs);
  for (const DeclaredEntry& out : locals) {
    if (out.entry.role != ActionRole::kOutput) continue;  // internals are
                                                          // self-consumed
    // Same-machine inputs count: a composite consumes its own output when
    // a member inputs what another member produces (internal routing).
    bool consumed =
        input_index.any_unifiable(out.entry, [&](std::size_t i) {
          return inputs[i].entry.overlaps(out.entry);
        });
    if (!consumed) {
      report.add(DiagCode::kNoConsumer,
                 "no machine consumes " + kind_str(out.entry),
                 out.machine->name());
    }
  }

  // --- PSC005/PSC006: clock-model contracts over the machine tree ----------
  Duration expected_eps = opts.eps;
  const Machine* eps_setter = nullptr;
  // Recursive walk via an explicit stack: (machine, under clock adapter?).
  std::vector<std::pair<const Machine*, bool>> stack;
  for (const Machine* m : machines) stack.emplace_back(m, false);
  while (!stack.empty()) {
    const auto [m, under_clock] = stack.back();
    stack.pop_back();
    const ModelTraits tr = m->model_traits();
    if (tr.clock_eps >= 0) {
      if (expected_eps < 0) {
        expected_eps = tr.clock_eps;
        eps_setter = m;
      } else if (tr.clock_eps != expected_eps) {
        std::ostringstream msg;
        msg << "clock eps " << format_time(tr.clock_eps) << " but the system"
            << (opts.eps >= 0 ? " requires "
                              : (eps_setter != nullptr
                                     ? " (first seen at " +
                                           eps_setter->name() + ") uses "
                                     : " uses "))
            << format_time(expected_eps);
        report.add(DiagCode::kEpsMismatch, msg.str(), m->name());
      }
    }
    if (tr.reads_real_time && under_clock) {
      report.add(DiagCode::kRealTimeUnderClock,
                 "transitions read `now` inside a clock-driven composition",
                 m->name());
    }
    const bool child_clock = under_clock || tr.clock_adapter;
    for (std::size_t k = 0; k < m->member_count(); ++k) {
      const Machine* child = m->member_at(k);
      if (child != nullptr) stack.emplace_back(child, child_clock);
    }
  }

  return report;
}

}  // namespace psc
