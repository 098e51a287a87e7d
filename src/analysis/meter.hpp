// The window meter: one pass that turns each TimedEvent into the
// durations the paper bounds (analysis/windows.hpp holds the bounds).
//
// Per event it reports
//   - the signed skew c(t) - t of a clocked event (C_eps, Def 2.5);
//   - at most one delivery measurement, matched by message uid:
//       kTimed     SENDMSG -> RECVMSG real latency (Figure 1),
//       kPhysical  ESENDMSG -> ERECVMSG real latency (Simulation 1),
//       kRelease   a Simulation 1 buffer release (RECVMSG of a message
//                  that crossed ESENDMSG): receiver clock minus the
//                  sender's clock tag (Lamport's rule and Theorem 4.7),
//       kUnmatched a delivery leg whose send was never seen;
//   - the MMT boundmap gaps (Def 5.1): a node's TICK gap and the step gap
//     of an owner recognized as an MMT node by its MMTSTEP.
//
// The meter owns the only per-message record and last-tick / last-step
// state of the online checkers; an event's name class is its interned
// name's (ActionName::msg_class, core/action.hpp). The checkers —
// InvariantProbe (pass/fail with a grid tolerance), CertificateProbe
// (per-edge certificates), BoundSlackProbe (BoundWindow::slack histograms)
// and ChannelLatencyProbe — are MeteredProbes: they only evaluate their
// windows on a Measurement. On an executor, the executor's one meter
// measures each event once and hands the result to every metered probe
// (see Executor::record_event); a metered probe driven any other way —
// replayed by hand, or behind a forwarding probe — measures with a meter of
// its own.
//
// The tag rule: a message's clock tag is the one its ESENDMSG carried,
// refreshed by the ERECVMSG that delivers it (the receive buffer strips the
// tag before the RECVMSG release, so the release is measured against the
// tag as delivered).
//
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/uid_index.hpp"
#include "core/msg_class.hpp"
#include "core/trace.hpp"
#include "obs/probe.hpp"

namespace psc {

struct Delivery {
  enum class Leg : std::uint8_t {
    kNone = 0,   // no delivery, or a release without both clock readings
    kTimed,      // real latency from SENDMSG
    kPhysical,   // real latency from ESENDMSG
    kRelease,    // clock latency: receiver clock - sender tag
    kUnmatched,  // ERECVMSG / RECVMSG with no matching send
  };
  Leg leg = Leg::kNone;
  std::uint64_t uid = 0;   // unless kNone
  Duration latency = 0;    // unless kNone or kUnmatched
  Time tag = kNoClockTag;  // kRelease: the sender's clock tag
};

struct Measurement {
  std::optional<Duration> skew;  // c(t) - t, for a clocked event
  Delivery delivery;
  // Since the node's previous TICK (time 0 before the first).
  std::optional<Duration> tick_gap;
  // Since the owner's previous event (time 0 before the first), for every
  // event of an owner that has emitted MMTSTEP.
  std::optional<Duration> step_gap;
};

class WindowMeter {
 public:
  // `mmt_gaps` false skips the tick/step state for consumers that read no
  // gaps.
  explicit WindowMeter(bool mmt_gaps = true) : mmt_gaps_(mmt_gaps) {}

  bool mmt_gaps() const { return mmt_gaps_; }
  // Measures gaps from the next event on (each node's and owner's first
  // gap then runs from time 0, as on a fresh meter).
  void enable_mmt_gaps() { mmt_gaps_ = true; }

  // Events must arrive in execution order; the result is valid until the
  // next call. This runs on every event, so the result is written in place
  // (value-initializing a fresh one per event cost more than the
  // measuring) and only the message legs run out of line.
  const Measurement& measure(const TimedEvent& e) {
    Measurement& m = last_;
    m.skew = e.clock != kNoClockTag ? std::optional<Duration>(e.clock - e.time)
                                    : std::nullopt;
    m.delivery.leg = Delivery::Leg::kNone;
    m.tick_gap.reset();
    m.step_gap.reset();
    const bool msg = e.action.msg.has_value();
    if (!msg && !mmt_gaps_) return m;
    const MsgClass cls = e.action.name.msg_class();
    if (msg && is_msg_leg(cls)) deliver(e, cls, m.delivery);
    if (mmt_gaps_) gaps(e, cls, m);
    return m;
  }

 private:
  struct MsgRecord {
    Time send_time = -1;     // SENDMSG
    Time esend_time = -1;    // ESENDMSG
    Time tag = kNoClockTag;  // sender clock tag (see the tag rule above)
  };
  struct OwnerSteps {
    Time last = 0;
    bool mmt = false;
  };

  // Sets d.uid, and d.leg with its fields for a delivery.
  void deliver(const TimedEvent& e, MsgClass cls, Delivery& d);

  void gaps(const TimedEvent& e, MsgClass cls, Measurement& m) {
    if (cls == MsgClass::kTick && e.action.node >= 0) {  // not kNoNode
      const auto node = static_cast<std::size_t>(e.action.node);
      if (node >= last_tick_.size()) last_tick_.resize(node + 1, 0);
      m.tick_gap = e.time - last_tick_[node];
      last_tick_[node] = e.time;
    }
    // Every event of the owner moves its last step, so the first MMTSTEP's
    // gap runs from the owner's previous event; the trailing gap to the
    // run's end is never measured (the run may stop mid-budget).
    if (e.owner >= 0) {
      const auto owner = static_cast<std::size_t>(e.owner);
      if (owner >= owner_steps_.size()) owner_steps_.resize(owner + 1);
      OwnerSteps& s = owner_steps_[owner];
      if (cls == MsgClass::kMmtStep) s.mmt = true;
      if (s.mmt) m.step_gap = e.time - s.last;
      s.last = e.time;
    }
  }

  bool mmt_gaps_;
  Measurement last_;
  UidIndex<MsgRecord> msgs_;
  std::vector<Time> last_tick_;          // node -> last TICK time
  std::vector<OwnerSteps> owner_steps_;  // owner -> step state
};

// A probe that evaluates the window meter's measurements. on_measured is
// its only evaluation hook: the executor measures each event once and calls
// it on every metered probe it runs, while on_event — the path of every
// other driver (a forwarding probe, the test-side reference loop, a replay
// by hand) — feeds the probe's own meter. A consumer must ignore the gaps
// it did not ask for: the executor's meter measures them when any of its
// metered probes wants them.
class MeteredProbe : public Probe {
 public:
  explicit MeteredProbe(bool mmt_gaps) : meter_(mmt_gaps) {}

  // Whether on_measured reads Measurement::tick_gap / step_gap.
  bool wants_mmt_gaps() const { return meter_.mmt_gaps(); }

  virtual void on_measured(const TimedEvent& e, const Measurement& m,
                           const Machine& owner) = 0;

  void on_event(const TimedEvent& e, const Machine& owner) final {
    on_measured(e, meter_.measure(e), owner);
  }

 private:
  WindowMeter meter_;
};

}  // namespace psc
