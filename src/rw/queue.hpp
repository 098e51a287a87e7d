// A linearizable replicated FIFO queue — "other shared memory objects"
// beyond registers, built on the tobcast primitive (state machine
// replication in the paper's timing discipline).
//
// Every ENQ_i(v) / DEQ_i invocation is total-order broadcast; each replica
// applies the delivered operations to its local queue copy in the agreed
// order; the invoking node responds (ENQACK_i / DEQRET_i(v), with v = -1
// for an empty queue) as soon as its own operation is delivered locally.
// Since all replicas apply the same sequence, and an operation's
// linearization point is its (globally agreed, within-interval) delivery
// time, the object is linearizable: ops cost d2' + delta just like a
// Figure-3 write.
//
// check_linearizable_queue runs the Wing-Gong search of rw/wing_gong.hpp
// with sequential FIFO semantics, so the claim is machine-checked, not
// assumed.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "clock/trajectory.hpp"
#include "core/machine.hpp"
#include "core/trace.hpp"
#include "runtime/executor.hpp"
#include "rw/spec.hpp"
#include "util/rng.hpp"

namespace psc {

struct ObsOptions;  // obs/instrument.hpp

// --- specification -------------------------------------------------------------

struct QueueOp {
  enum class Kind { kEnq, kDeq };
  int proc = 0;
  Kind kind = Kind::kEnq;
  std::int64_t value = 0;  // enq: value enqueued; deq: value returned (-1 empty)
  Time inv = 0;
  Time res = 0;
};

std::string to_string(const QueueOp& op);

using QueueCheckResult = LinearizabilityResult;

// Linearizability against sequential FIFO semantics (a dequeue returns the
// front, or -1 when empty), by the Wing-Gong search of rw/wing_gong.hpp
// that check_linearizable also runs: each state reads only the window of
// ops overlapping its frontier's response and is memoized exactly on
// (frontier, linearized ops in the window, queue contents), so a check
// costs O(states x window). Candidates are tried in `ops` index order,
// which fixes the search and its `states` count.
QueueCheckResult check_linearizable_queue(const std::vector<QueueOp>& ops,
                                          std::size_t max_states = 4'000'000);

// --- the replicated queue server -------------------------------------------------

class QueueServer final : public Machine {
 public:
  QueueServer(int node, int num_nodes);

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time now) override;
  void enabled_into(Time now, Candidates& out) const override;
  void apply_local(const Action& a, Time now) override;
  Time upper_bound(Time now) const override;

  const std::deque<std::int64_t>& replica() const { return queue_; }

 private:
  enum class OpKind { kNone, kEnq, kDeq };

  int node_;
  int num_nodes_;
  std::deque<std::int64_t> queue_;
  OpKind outstanding_ = OpKind::kNone;
  bool bcast_ready_ = false;         // TOBCAST owed for the outstanding op
  std::int64_t pending_bcast_ = 0;   // its payload
  bool response_ready_ = false;
  std::int64_t response_value_ = 0;  // deq result
};

// One node = composite(QueueServer, TobcastNode) with the TOBCAST/TODELIVER
// interface hidden. External signature: ENQ/DEQ in, ENQACK/DEQRET out,
// SENDMSG/RECVMSG to the channels.
std::vector<std::unique_ptr<Machine>> make_queue_nodes(int num_nodes,
                                                       Duration d2_prime,
                                                       Duration delta);

// --- workload --------------------------------------------------------------------

class QueueClient final : public Machine {
 public:
  struct Options {
    int node = 0;
    int num_ops = 10;
    double enq_fraction = 0.5;
    Duration think_min = 0;
    Duration think_max = 0;
    std::uint64_t seed = 1;
  };

  explicit QueueClient(const Options& options);

  const std::vector<QueueOp>& operations() const { return ops_; }
  bool finished() const { return issued_ == options_.num_ops && !busy_; }

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time t) override;
  void enabled_into(Time t, Candidates& out) const override;
  void apply_local(const Action& a, Time t) override;
  Time upper_bound(Time t) const override;
  Time next_enabled(Time t) const override;

 private:
  Options options_;
  Rng rng_;
  int issued_ = 0;
  bool busy_ = false;
  Time next_issue_ = 0;
  QueueOp current_{};
  std::vector<QueueOp> ops_;
};

// --- harness ---------------------------------------------------------------------

struct QueueRunResult {
  std::vector<QueueOp> ops;
  TimedTrace events;
  // Full executor report, including scheduler self-metrics.
  ExecutorReport report;
};

struct QueueRunConfig {
  int num_nodes = 3;
  Duration d1 = 0;
  Duration d2 = milliseconds(1);
  Duration eps = microseconds(50);
  Duration delta = 1;
  int ops_per_node = 10;
  double enq_fraction = 0.5;
  Duration think_min = 0;
  Duration think_max = milliseconds(1);
  std::uint64_t seed = 1;
  Time horizon = seconds(30);
  // Lint the composition before the run, as in RwRunConfig.
  bool validate = false;
  // Observability hookup, as in RwRunConfig (see obs/instrument.hpp).
  const ObsOptions* obs = nullptr;
};

// Timed model (d2' = d2).
QueueRunResult run_queue_timed(const QueueRunConfig& cfg);
// Clock model via Simulation 1 (d2' = d2 + 2 eps).
QueueRunResult run_queue_clock(const QueueRunConfig& cfg,
                               const DriftModel& drift);

class ClockedMachine;  // runtime/clocked.hpp

// The clock-model queue system assembled into its executor but not run
// (cfg.obs is not read); run_queue_clock assembles through it.
struct QueueAssembly {
  std::unique_ptr<Executor> exec;
  std::vector<QueueClient*> clients;  // index = node id; owned by exec
  std::vector<std::shared_ptr<const ClockTrajectory>> trajectories;
  std::vector<ClockedMachine*> nodes;  // index = node id
};
QueueAssembly assemble_queue_clock(const QueueRunConfig& cfg,
                                   const DriftModel& drift);

}  // namespace psc
