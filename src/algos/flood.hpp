// Flooding broadcast with *time-based termination detection* — the fourth
// algorithm family built with the paper's methodology (timeouts in place of
// acknowledgment waves, as in Perlman's LAN spanning-tree world [14]).
//
// The source DELIVERs and relays its payload at time 0; every other node
// DELIVERs and relays on first receipt. Relaying is instantaneous (urgent),
// so after h hops the payload has traveled at most h * d2' of real time.
// The source announces COMPLETE at
//
//     complete_at = (waves - 1) * wave_gap + hops_bound * d2_design + margin,
//
// claiming every node has delivered every wave. In the timed model the rule
// d2_design = d2 (the channel's real bound) makes the claim sound. On
// eps-clocks the announcement time is read off the *source's clock*, which
// may run up to eps early, while deliveries happen in real time — the
// Theorem 4.7 rule (design against d2' = d2 + 2 eps) restores soundness
// with room to spare; a naive margin < eps over h*d2 is violated by
// max-delay schedules, which the tests demonstrate.
//
// A run may carry several waves: the source originates wave w (payload + w)
// at time w * wave_gap, and every node floods each wave independently
// (relay-once per payload). One wave over a cycle of n nodes costs ~3n+1
// events, which is too small a workload for stable benchmarking at large n;
// the waves knob scales event count without changing the per-event work.
// With waves = 1 (the default) the behaviour — including the exact enabled
// sets and the resulting trace — is the single-wave algorithm above.
//
// Safety property (real time): every DELIVER precedes COMPLETE.
#pragma once

#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "core/trace.hpp"

namespace psc {

struct FloodParams {
  int node = 0;
  bool source = false;
  std::vector<int> peers;     // relay targets (graph out-neighbours)
  std::int64_t payload = 0;   // source only: wave w carries payload + w
  int hops_bound = 1;         // >= eccentricity of the source
  Duration d2_design = 0;     // the per-hop delay budget assumed
  Duration margin = 1;
  int waves = 1;              // source only: number of waves to originate
  Duration wave_gap = 0;      // source only: origination period
};

class FloodNode final : public Machine {
 public:
  explicit FloodNode(const FloodParams& params);

  // True once the node has delivered at least one wave.
  bool delivered() const { return delivered_ > 0; }
  int delivered_waves() const { return delivered_; }

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time now) override;
  void enabled_into(Time now, Candidates& out) const override;
  void apply_local(const Action& a, Time now) override;
  Time upper_bound(Time now) const override;
  Time next_enabled(Time now) const override;

 private:
  // SENDMSGs still owed for one delivered payload.
  struct Relay {
    std::int64_t payload = 0;
    std::vector<int> targets;
  };

  Time wave_start(int w) const;
  Time complete_at() const;
  bool seen(std::int64_t payload) const;
  // Source only: wave payloads originated by `now` but not yet taken up.
  std::vector<std::int64_t> due_waves(Time now) const;

  FloodParams params_;
  std::vector<std::int64_t> seen_;        // payloads known (received or own)
  std::vector<std::int64_t> to_deliver_;  // received, DELIVER pending (FIFO)
  std::vector<Relay> relays_;             // delivered, SENDMSGs pending
  int delivered_ = 0;                     // DELIVERs performed
  bool announced_ = false;                // source's COMPLETE performed
};

// One FloodNode per node of `graph`; node `source` starts `waves` floods
// spaced `wave_gap` apart (payloads payload, payload+1, ...).
std::vector<std::unique_ptr<Machine>> make_flood_nodes(
    const struct Graph& graph, int source, std::int64_t payload,
    int hops_bound, Duration d2_design, Duration margin, int waves = 1,
    Duration wave_gap = 0);

// True iff every DELIVER event precedes every COMPLETE event (real time),
// and exactly `n * waves` DELIVERs happened.
bool flood_safe(const TimedTrace& trace, int n, int waves = 1);

}  // namespace psc
