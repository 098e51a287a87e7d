// Timing-based leader election in the timed model — a second application of
// the paper's design technique (Section 7.1, first approach).
//
// Nodes 0..n-1 elect the highest id using *silence* instead of message
// floods: node i schedules its claim at time (n-1-i) * slot. If slot
// exceeds the maximum message delay the algorithm was designed against
// (slot > d2'), the highest live claimant's CLAIM reaches every lower node
// before that node's own claim time, suppressing it — exactly one CLAIM is
// ever sent. At time (n-1) * slot + d2' + margin every node announces
// LEADER(j) for the highest claim it saw (its own included).
//
// Properties:
//   unanimity     all nodes announce the same leader (holds for any slot);
//   single-claim  exactly one CLAIM message is broadcast (needs slot > d2' —
//                 the timing property that the clock transformation must
//                 preserve by designing against d2' = d2 + 2 eps).
//
// Run through Simulation 1 with slot > d2 + 2 eps, both properties survive
// (Theorem 4.7: announcement times perturb by <= eps; the suppression logic
// is internal). With slot chosen against the raw d2 only, adversarial
// clocks break single-claim — the ablation tests/benches show this.
#pragma once

#include <memory>
#include <vector>

#include "core/machine.hpp"

namespace psc {

struct ElectionParams {
  int node = 0;
  int num_nodes = 1;
  Duration slot = 0;       // claim-slot length; design rule: slot > d2'
  Duration d2_design = 0;  // the max delay the announcement wait assumes
  Duration margin = 1;     // extra wait before announcing
};

class ElectionNode final : public Machine {
 public:
  explicit ElectionNode(const ElectionParams& params);

  // The leader this node announced, or -1 before announcement.
  int announced() const { return announced_ ? leader_ : -1; }
  bool claimed() const { return claimed_; }

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time now) override;
  std::vector<Action> enabled(Time now) const override;
  void apply_local(const Action& a, Time now) override;
  Time upper_bound(Time now) const override;
  Time next_enabled(Time now) const override;

 private:
  Time claim_time() const;
  Time announce_time() const;

  ElectionParams params_;
  bool claimed_ = false;           // this node broadcast CLAIM
  bool suppressed_ = false;        // saw a higher claim before claiming
  std::vector<int> send_targets_;  // peers still owed our CLAIM
  int best_seen_ = -1;             // highest claim id observed
  bool announced_ = false;
  int leader_ = -1;
};

std::vector<std::unique_ptr<Machine>> make_election_nodes(
    int num_nodes, const ElectionParams& base);

}  // namespace psc
