// Time-sliced linearizable register — the clock-model baseline of [10]
// (Mavronicolas's PhD thesis), reconstructed.
//
// The thesis itself is not available; the paper reports only its costs in
// the "clocks within u of each other" model: read 4u, write d2 + 3u
// (Section 6.3). This machine is a faithful-in-spirit reconstruction,
// calibrated to exactly those costs, in our C_eps clock model with u = 2eps
// (the translation the paper itself uses):
//
//  * Clock time is divided into slices of length u.
//  * WRITE_i(v) at clock T broadcasts UPDATE(v, B) where B is the first
//    slice boundary > T + d2 + u; every node (sender included) applies the
//    update when its local clock reaches B. Since any receiver's clock on
//    arrival is at most T + d2 + u (skew 2eps = u), the update is in place
//    everywhere before local clock B. ACK fires at sender clock B + u,
//    i.e. after every node has applied the update in real time;
//    worst case T + d2 + 3u.
//  * READ_i at clock T returns the local value at clock R = (the first
//    boundary >= T) + 3u, reflecting all updates with boundary < R (reads
//    fire before same-instant boundary updates); worst case 4u.
//
// All operations serialize by their clock value (B for writes, R for
// reads, reads first on ties, writes by sender id) — linearizability is
// proven by the real-time/skew arithmetic above and verified empirically
// by the test and benchmark suites (see DESIGN.md, substitutions).
//
// This is a *native clock-model algorithm*: the machine's time parameter is
// the local clock, it needs no Simulation-1 buffers, and its messages carry
// their application boundary in the payload.
#pragma once

#include <memory>
#include <vector>

#include "core/machine.hpp"

namespace psc {

struct SlicedParams {
  int node = 0;
  int num_nodes = 1;
  Duration u = 0;    // slice length = inter-clock skew bound (2 eps)
  Duration d2 = 0;   // max physical message delay of the clock model
  std::int64_t v0 = 0;
};

class SlicedRw final : public Machine {
 public:
  explicit SlicedRw(const SlicedParams& params);

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time clock) override;
  void enabled_into(Time clock, Candidates& out) const override;
  void apply_local(const Action& a, Time clock) override;
  Time upper_bound(Time clock) const override;
  Time next_enabled(Time clock) const override;

  std::int64_t value() const { return value_; }

 private:
  struct PendingUpdate {
    int proc;
    std::int64_t value;
    Time boundary;  // clock time at which the update takes effect
  };
  struct ReadRecord {
    bool active = false;
    Time ret_at = 0;  // clock time R of the RETURN
  };
  enum class WriteStatus { kInactive, kSend, kWaitAck };
  struct WriteRecord {
    WriteStatus status = WriteStatus::kInactive;
    std::int64_t value = 0;
    std::vector<int> send_procs;
    Time boundary = 0;  // B
    Time ack_at = 0;    // B + u
  };

  // First slice boundary strictly greater than t.
  Time next_boundary_after(Time t) const;
  // Earliest pending boundary <= clock, or kTimeMax.
  Time due_boundary(Time clock) const;

  SlicedParams params_;
  std::int64_t value_;
  ReadRecord read_;
  WriteRecord write_;
  std::vector<PendingUpdate> pending_;
};

std::vector<std::unique_ptr<Machine>> make_sliced_algorithms(
    int num_nodes, const SlicedParams& base);

}  // namespace psc
