// Layer 1 of the model-conformance analyzer: the static composition linter.
//
// Walks a composition — the top-level machines of an Executor, before any
// event fires — and checks that the declared signatures assemble into a
// well-formed system:
//
//   PSC001  a kind locally controlled by two machines (Def 2.2 requires the
//           local-action sets of composed automata to be disjoint);
//   PSC002  a declared input no machine can produce — a dangling endpoint
//           (the action can never occur; usually a mis-wired channel);
//   PSC004  a name-matching producer exists but its (node, peer) fields
//           cannot align with the consumer's — the classic swapped-endpoint
//           channel bug, reported instead of PSC002 when detectable;
//   PSC003  a declared output nothing consumes (note: dead interface);
//   PSC005  clock adapters whose eps disagree — C_eps (Def 2.5) is a single
//           system-wide predicate, so mixed-eps clocks void Theorem 4.7;
//   PSC006  a machine whose transitions read real time placed under a clock
//           adapter — breaks epsilon-time independence (Def 2.6).
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/machine.hpp"

namespace psc {

struct LintOptions {
  // The system's C_eps accuracy. When >= 0, every clock adapter's eps must
  // equal it; when negative, adapters are only required to agree with each
  // other (first one seen sets the expectation).
  Duration eps = -1;
};

// Lints the composition formed by `machines` (non-owning; typically an
// Executor's machine list in add() order).
DiagnosticReport lint_composition(const std::vector<const Machine*>& machines,
                                  const LintOptions& opts = {});

}  // namespace psc
