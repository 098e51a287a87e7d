// Cristian-style time synchronization as clock-model machines.
//
// Section 4.3 and 6.3 remark that the "clocks within u of each other" model
// relates to the paper's C_eps model when some nodes are attached to real
// time sources (atomic clocks). This module realizes that remark: a
// TimeServer (a node whose clock IS a real-time source, i.e. runs on a
// perfect trajectory) answers SYNCREQ probes with its clock reading; a
// SyncClient round-trips probes and estimates its own clock's offset from
// the server with the classic error bound
//
//      |estimate - true_offset|  <=  rtt/2 - d1,
//
// where rtt is measured on the client's clock. With channel delays in
// [d1, d2] and rate-1 clocks this is at most (d2 - d1)/2 — the client
// learns its skew to within half the delay asymmetry, which is exactly the
// discipline mechanism of clock/discipline.hpp seen from inside the model.
#pragma once

#include <memory>
#include <vector>

#include "core/machine.hpp"

namespace psc {

class TimeServer final : public Machine {
 public:
  explicit TimeServer(int node);

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time clock) override;
  std::vector<Action> enabled(Time clock) const override;
  void apply_local(const Action& a, Time clock) override;
  Time upper_bound(Time clock) const override;

  std::size_t served() const { return served_; }

 private:
  struct PendingReply {
    int client = 0;
    std::int64_t probe_id = 0;
  };
  int node_;
  std::vector<PendingReply> pending_;
  std::size_t served_ = 0;
};

struct SyncSample {
  std::int64_t probe_id = 0;
  Duration estimated_offset = 0;  // server clock - client clock, estimated
  Duration error_bound = 0;       // rtt/2 - d1 (client-clock accounting)
  Time client_clock = 0;          // client clock when the sample completed
};

class SyncClient final : public Machine {
 public:
  // Probes `server` every `period` (client clock), `count` times. d1 is the
  // channel's minimum delay, used in the error bound.
  SyncClient(int node, int server, Duration period, int count, Duration d1);

  const std::vector<SyncSample>& samples() const { return samples_; }

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time clock) override;
  std::vector<Action> enabled(Time clock) const override;
  void apply_local(const Action& a, Time clock) override;
  Time upper_bound(Time clock) const override;
  Time next_enabled(Time clock) const override;

 private:
  int node_, server_;
  Duration period_;
  int count_;
  Duration d1_;
  Time next_probe_ = 0;
  int sent_ = 0;
  bool awaiting_ = false;
  std::int64_t probe_id_ = 0;
  Time probe_sent_clock_ = 0;
  std::vector<SyncSample> samples_;
};

}  // namespace psc
