// The send and receive buffers of Section 4.2 (Figure 2).
//
// Both are *clock-time* machines: their time parameter is the node clock
// (they are composed with C(A_i,eps) under the clock-automaton composition
// and driven through a ClockedMachine adapter).
//
// SendBuffer S_{ij,eps}: tags each outgoing message with the clock value at
// which the algorithm sent it, then forwards it immediately — the
// ESENDMSG precondition `c = clock` plus the nu-precondition (time may not
// pass while the queue is nonempty) force forwarding before the clock moves.
//
// ReceiveBuffer R_{ji,eps}: holds each incoming (m, c) until the local clock
// reads >= c, guaranteeing that no message is received at a clock time
// earlier than the clock time at which it was sent (Lamport's condition;
// the crux of Simulation 1). Figure 2 writes the buffer as a FIFO queue,
// but its nu-precondition ranges over *all* queued messages; with a
// reordering channel a FIFO front can carry a later tag than a queued
// successor, which would deadlock the automaton as literally written. We
// deliver in tag order (stable on arrival), which coincides with the paper's
// automaton for FIFO channels and realizes the evident intent otherwise
// (see DESIGN.md).
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "core/machine.hpp"

namespace psc {

class SendBuffer final : public Machine {
 public:
  // Buffer on edge i -> j.
  SendBuffer(int i, int j);

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time clock) override;
  std::vector<Action> enabled(Time clock) const override;
  void apply_local(const Action& a, Time clock) override;
  Time upper_bound(Time clock) const override;

  std::size_t queued() const { return q_.size(); }

 private:
  struct Tagged {
    Message msg;
    Time tag;  // clock value at SENDMSG time
  };
  int i_, j_;
  std::deque<Tagged> q_;
};

struct ReceiveBufferStats {
  std::size_t received = 0;   // ERECVMSG count
  std::size_t buffered = 0;   // messages that had to wait (tag > clock)
  Duration max_hold = 0;      // max clock-time a message waited
  Duration total_hold = 0;    // summed clock-time held (buffered ones)
};

class ReceiveBuffer final : public Machine {
 public:
  // Buffer at node i for messages from node j.
  ReceiveBuffer(int j, int i);

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time clock) override;
  std::vector<Action> enabled(Time clock) const override;
  void apply_local(const Action& a, Time clock) override;
  Time upper_bound(Time clock) const override;
  Time next_enabled(Time clock) const override;

  std::size_t queued() const { return q_.size(); }
  const ReceiveBufferStats& stats() const { return stats_; }

  // Observability hook, fired on every RECVMSG release with the held
  // message (clock_tag still attached), the local clock at its ERECVMSG
  // arrival, and the local clock at release. The event stream alone cannot
  // tell a message that waited for its tag (eps at work) from one released
  // immediately; the hook can (tag > arrived_clock). Null by default —
  // unobserved buffers pay one branch per release.
  using ReleaseHook =
      std::function<void(const Message& msg, Time arrived_clock,
                         Time released_clock)>;
  void set_release_hook(ReleaseHook hook) { release_hook_ = std::move(hook); }

 private:
  struct Held {
    Message msg;        // still carries its clock_tag
    Time arrived_clock; // local clock at ERECVMSG time
  };
  // Smallest-tag element index, kNone when empty. Stable: among equal tags,
  // earliest arrival first.
  std::size_t min_index() const;

  int j_, i_;
  std::vector<Held> q_;
  ReceiveBufferStats stats_;
  ReleaseHook release_hook_;
};

}  // namespace psc
