// Edge automata E_{ij,[d1,d2]} — Figure 1 of the paper.
//
// A channel accepts SENDMSG_i(j, m), holds (m, t) in its buffer, and must
// deliver RECVMSG_j(i, m) at some time in [t+d1, t+d2]; the nu-precondition
// forbids time from passing t+d2 while m is undelivered. Delivery order is
// unconstrained (messages may be reordered).
//
// The delivery-time nondeterminism is resolved by a DelayPolicy that samples
// each message's delay at send time — a refinement of the automaton's
// nondeterminism that keeps executions reproducible and lets benchmarks
// drive worst-case schedules (all-min, all-max, bimodal/reordering).
//
// The same class implements the clock-model edge E^c (Section 4.1): it is
// byte-identical except that actions are renamed ESENDMSG/ERECVMSG and
// messages carry a clock tag — pass the names at construction.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "util/rng.hpp"

namespace psc {

class DelayPolicy {
 public:
  explicit DelayPolicy(std::string name) : name_(std::move(name)) {}
  virtual ~DelayPolicy() = default;
  DelayPolicy(const DelayPolicy&) = delete;
  DelayPolicy& operator=(const DelayPolicy&) = delete;

  const std::string& name() const { return name_; }
  // Must return a delay in [d1, d2].
  virtual Duration sample(Duration d1, Duration d2, Rng& rng) = 0;

  static std::unique_ptr<DelayPolicy> uniform();
  static std::unique_ptr<DelayPolicy> always_min();
  static std::unique_ptr<DelayPolicy> always_max();
  // Alternates min/max extremes: adjacent messages swap order whenever
  // d2 - d1 exceeds their send spacing — a reordering-heavy adversary.
  static std::unique_ptr<DelayPolicy> bimodal(double p_fast = 0.5);
  static std::unique_ptr<DelayPolicy> fixed(Duration d);

 private:
  std::string name_;
};

struct ChannelStats {
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t reordered = 0;  // deliveries that overtook an earlier send
};

class Channel final : public Machine {
 public:
  // Edge from node i to node j with delay bounds [d1, d2].
  // send_name/recv_name select the timed-model interface
  // (SENDMSG/RECVMSG) or the clock-model interface (ESENDMSG/ERECVMSG).
  Channel(int i, int j, Duration d1, Duration d2,
          std::unique_ptr<DelayPolicy> policy, Rng rng,
          ActionName send_name = names::kSendMsg,
          ActionName recv_name = names::kRecvMsg);

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time t) override;
  void enabled_into(Time t, Candidates& out) const override;
  void apply_local(const Action& a, Time t) override;
  Time upper_bound(Time t) const override;
  Time next_enabled(Time t) const override;

  // Self-report the Figure 1 delivery contract so the bound-certificate
  // analyzer can harvest [d1, d2] per edge without dynamic_casts.
  ModelTraits model_traits() const override {
    ModelTraits tr;
    tr.relay_d1 = d1_;
    tr.relay_d2 = d2_;
    return tr;
  }

  const ChannelStats& stats() const { return stats_; }
  std::size_t in_flight() const { return buffer_.size(); }
  int src() const { return i_; }
  int dst() const { return j_; }

 private:
  struct InFlight {
    Message msg;
    Time sent_at = 0;
    Time deliver_at = 0;
    std::uint64_t seq = 0;  // send order, for reorder accounting
  };

  int i_, j_;
  Duration d1_, d2_;
  std::unique_ptr<DelayPolicy> policy_;
  Rng rng_;
  ActionName send_name_, recv_name_;
  std::vector<InFlight> buffer_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t delivered_hwm_ = 0;  // highest seq delivered so far
  ChannelStats stats_;
};

}  // namespace psc
