// Heartbeat failure detection in the timed model — a third application of
// the paper's design technique, exercising *accuracy under clock skew*.
//
// A sender emits HEARTBEAT messages every `period`; the monitor suspects it
// if no heartbeat arrives for `timeout`. The substrate is reliable (the
// paper has no failures), so crashes are modeled as an environment input
// CRASH_i that silences the sender.
//
// Design rule (timed model): timeout >= period + d2' guarantees no false
// suspicion, and a real crash is detected within timeout of the last
// heartbeat's arrival. Pushed through Simulation 1 the rule must use
// d2' = d2 + 2 eps; a timeout chosen against the raw d2 is falsely
// triggered by adversarial clocks (the monitor's clock runs fast while the
// sender's runs slow) — the ablation tests and bench E-fd quantify this.
#pragma once

#include <memory>
#include <vector>

#include "core/machine.hpp"

namespace psc {

class HeartbeatSender final : public Machine {
 public:
  // Sends HEARTBEAT to `peer` every `period`, starting at t = 0, until a
  // CRASH_i input arrives.
  HeartbeatSender(int node, int peer, Duration period);

  bool crashed() const { return crashed_; }
  std::size_t sent() const { return sent_; }

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time now) override;
  std::vector<Action> enabled(Time now) const override;
  void apply_local(const Action& a, Time now) override;
  Time upper_bound(Time now) const override;
  Time next_enabled(Time now) const override;

 private:
  int node_, peer_;
  Duration period_;
  bool crashed_ = false;
  Time next_beat_ = 0;
  std::size_t sent_ = 0;
};

class HeartbeatMonitor final : public Machine {
 public:
  // Suspects `watched` (via SUSPECT_i(j) output) if no heartbeat arrives
  // for `timeout` after the previous one (or after t = 0).
  HeartbeatMonitor(int node, int watched, Duration timeout);

  bool suspected() const { return suspected_; }
  Time suspect_time() const { return suspect_time_; }
  std::size_t beats_seen() const { return beats_; }

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time now) override;
  std::vector<Action> enabled(Time now) const override;
  void apply_local(const Action& a, Time now) override;
  Time upper_bound(Time now) const override;
  Time next_enabled(Time now) const override;

 private:
  int node_, watched_;
  Duration timeout_;
  Time deadline_;
  bool suspected_ = false;
  Time suspect_time_ = -1;
  std::size_t beats_ = 0;
};

}  // namespace psc
