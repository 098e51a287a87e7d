// Algorithms L and S for linearizable read/write objects (Section 6,
// Figure 3), as *timed-model* machines.
//
// Algorithm S (the paper's contribution) is Figure 3 verbatim. Algorithm L
// (Mavronicolas's timed-model algorithm, Section 6.1) is the same automaton
// with the read's extra 2eps wait removed — the paper derives S from L by
// exactly that change, so one parameterized machine implements both:
//
//   READ_i            -> wait c + two_eps + delta, then RETURN_i(value)
//   WRITE_i(v)        -> SENDMSG_i(j, UPDATE(v, t)) to every j (self
//                        included), t = now + d2'; ACK_i at now + d2' - c
//   RECVMSG(UPDATE)   -> schedule local update at t + delta; at equal
//                        update times keep the largest sender id
//   UPDATE_i          -> value := r.value at exactly r.update_time
//
// Parameters (paper names): c in [0, d2' - 2eps] trades read cost against
// write cost; delta > 0 is the paper's "arbitrarily small" wait that
// decouples outputs from same-time inputs; d2' is the maximum message delay
// the algorithm was designed against (in the clock model run via Simulation
// 1, d2' = d2 + 2eps).
//
// Run directly in the timed model it solves P (L, Lemma 6.1) / Q (S,
// Lemma 6.2); pushed through Simulation 1, S solves plain linearizability
// in the clock model (Theorem 6.5).
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/machine.hpp"

namespace psc {

struct RwParams {
  int node = 0;
  int num_nodes = 1;
  Duration c = 0;          // read/write tradeoff parameter
  Duration delta = 1;      // "arbitrarily small" wait (>= 1 time quantum)
  Duration d2_prime = 0;   // designed-against max message delay
  Duration two_eps = 0;    // 0 => algorithm L; 2*eps => algorithm S
  std::int64_t v0 = 0;     // initial register value
};

class RwAlgorithm final : public Machine {
 public:
  explicit RwAlgorithm(const RwParams& params);

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time now) override;
  void enabled_into(Time now, Candidates& out) const override;
  void apply_local(const Action& a, Time now) override;
  Time upper_bound(Time now) const override;
  Time next_enabled(Time now) const override;

  std::int64_t value() const { return value_; }
  const RwParams& params() const { return params_; }

 private:
  struct ReadRecord {
    bool active = false;
    Time time = 0;  // scheduled RETURN time
  };
  enum class WriteStatus { kInactive, kSend, kAck };
  struct WriteRecord {
    WriteStatus status = WriteStatus::kInactive;
    std::int64_t send_value = 0;
    std::set<int> send_procs;
    Time send_time = 0;
    Time ack_time = 0;
  };
  struct UpdateRecord {
    int proc = 0;
    std::int64_t value = 0;
    Time update_time = 0;
  };

  // Derived variable `mintime` of Figure 3: the nu-precondition.
  Time mintime() const;
  bool update_due(Time now) const;

  RwParams params_;
  std::int64_t value_;
  ReadRecord read_;
  WriteRecord write_;
  std::vector<UpdateRecord> updates_;
};

// Convenience: one algorithm machine per node with identical parameters.
std::vector<std::unique_ptr<Machine>> make_rw_algorithms(int num_nodes,
                                                         const RwParams& base);

}  // namespace psc
