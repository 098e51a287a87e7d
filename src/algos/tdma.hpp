// TDMA mutual exclusion — a lease-style arbiter driven purely by time.
//
// Time is divided into frames of n * slot; node i owns the i-th slot of
// every frame and, while it still wants leases, outputs GRANT_i at
// slot_start + guard and RELEASE_i at slot_end - guard. No messages are
// exchanged at all: exclusion is bought entirely with synchronized time,
// the classic "use time to schedule resources" pattern from the paper's
// introduction.
//
// The safety property P is *real-time* mutual exclusion: the [GRANT,
// RELEASE] intervals of different nodes never overlap. In the timed model
// guard = 0 solves P with maximal utilization. On eps-clocks each endpoint
// can move by eps, so the paper's second design technique (Section 7.1:
// find Q with Q_eps ⊆ P) applies literally: take Q = "leases shrunk by a
// guard band >= eps on each side"; any per-node eps-perturbation of a
// Q-trace is still exclusive, i.e. Q_eps ⊆ P. Deploying the guard >= eps
// design through Simulation 1 therefore preserves exclusion, while the
// naive guard = 0 design overlaps by up to 2 eps — the ablation that
// bench_ablation and the tests quantify.
#pragma once

#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "core/trace.hpp"

namespace psc {

struct TdmaParams {
  int node = 0;
  int num_nodes = 1;
  Duration slot = 0;     // slot length
  Duration guard = 0;    // shrink at both lease ends; design rule: >= eps
  int max_leases = 1;    // how many of its slots the node uses
};

class TdmaMutex final : public Machine {
 public:
  explicit TdmaMutex(const TdmaParams& params);

  int leases_taken() const { return leases_; }

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time now) override;
  std::vector<Action> enabled(Time now) const override;
  void apply_local(const Action& a, Time now) override;
  Time upper_bound(Time now) const override;
  Time next_enabled(Time now) const override;

 private:
  Time frame_length() const;
  // Start of the first owned slot at or after t.
  Time next_slot_start(Time t) const;

  TdmaParams params_;
  bool holding_ = false;
  Time grant_at_;    // next GRANT time (machine time)
  Time release_at_ = 0;
  int leases_ = 0;
};

std::vector<std::unique_ptr<Machine>> make_tdma_nodes(int num_nodes,
                                                      const TdmaParams& base);

struct Lease {
  int node = 0;
  Time grant = 0;
  Time release = 0;
};

// Extracts [GRANT, RELEASE] intervals (real times) from a trace.
std::vector<Lease> extract_leases(const TimedTrace& trace);

// Counts pairs of leases from different nodes whose real-time intervals
// overlap — 0 means mutual exclusion held.
std::size_t count_overlaps(const std::vector<Lease>& leases);

}  // namespace psc
