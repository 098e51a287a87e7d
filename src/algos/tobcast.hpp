// Timestamp-based total-order broadcast — the mechanism inside Figure 3,
// factored out as a reusable primitive.
//
// Algorithm S's updates work because every node applies each write at the
// *same* scheduled time (sender timestamp + d2' + delta), with ties broken
// by sender id. Generalizing from "last write wins" to "apply in timestamp
// order" gives total-order broadcast:
//
//   TOBCAST_i(v):   stamp v with the local time ts and a per-sender
//                   sequence number, send to every node (self included);
//   on receipt:     hold (v, ts, sender, seq) until time ts + d2' + delta;
//   delivery:       TODELIVER_i(v, sender) in (ts, sender, seq) order —
//                   by then every message with a smaller key has arrived
//                   (its ts is smaller, so its arrival deadline passed).
//
// In the timed model all nodes deliver each message at the same instant
// and in the same order (agreement + total order + validity). Through
// Simulation 1 the delivery *times* spread by at most 2 eps but the order
// — a pure function of (ts, sender, seq) — is identical everywhere, and
// like algorithm S the primitive is self-buffering (hold times are in the
// sender's clock future). The replicated queue of rw/queue.hpp is built
// directly on top.
#pragma once

#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "core/trace.hpp"

namespace psc {

struct TobcastParams {
  int node = 0;
  int num_nodes = 1;
  Duration d2_prime = 0;  // designed-against max message delay
  Duration delta = 1;
};

class TobcastNode final : public Machine {
 public:
  explicit TobcastNode(const TobcastParams& params);

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time now) override;
  std::vector<Action> enabled(Time now) const override;
  void apply_local(const Action& a, Time now) override;
  Time upper_bound(Time now) const override;
  Time next_enabled(Time now) const override;

  std::size_t delivered() const { return delivered_; }

 private:
  struct Pending {
    std::int64_t value = 0;
    Time ts = 0;        // sender timestamp
    int sender = 0;
    std::int64_t seq = 0;
    Time deliver_at = 0;  // ts + d2' + delta
  };
  struct Outgoing {
    std::int64_t value = 0;
    Time ts = 0;
    std::int64_t seq = 0;
    std::vector<int> targets;
  };

  // Index of the next deliverable pending entry (smallest key among those
  // with deliver_at <= now), or npos.
  std::size_t next_due(Time now) const;

  TobcastParams params_;
  std::vector<Outgoing> outgoing_;
  std::vector<Pending> pending_;
  std::int64_t next_seq_ = 0;
  std::size_t delivered_ = 0;
};

std::vector<std::unique_ptr<Machine>> make_tobcast_nodes(
    int num_nodes, const TobcastParams& base);

// Per-node delivery sequences (value, sender) extracted from TODELIVER
// events, in trace order.
std::vector<std::vector<std::pair<std::int64_t, int>>> delivery_sequences(
    const TimedTrace& trace, int num_nodes);

// Agreement check: every node's delivery sequence is a prefix of the
// longest one (nodes may be cut off by the horizon mid-delivery).
bool deliveries_agree(const TimedTrace& trace, int num_nodes);

}  // namespace psc
