// Multi-object linearizable registers — the generalization the paper defers
// to its full version ("We generalize our results to other shared memory
// objects in the full paper", end of Section 6's introduction).
//
// MultiRwAlgorithm manages K independent Figure-3 registers behind one
// node interface and one set of channels:
//
//   READ_i(x)      -> RETURN_i(x, v)     after c + 2eps + delta
//   WRITE_i(x, v)  -> ACK_i(x)           after d2' - c
//   MUPDATE(x, v, t) messages apply x := v at local time t + delta
//
// Correctness follows from the single-object argument object-wise: updates
// to each object apply at the same (clock-)time everywhere, ties broken by
// sender id per object. The client still has at most one operation
// outstanding (the alternation condition is per *node*, as in the paper),
// so the per-object records stay single-occupancy too.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "rw/algorithm.hpp"
#include "rw/harness.hpp"
#include "rw/spec.hpp"
#include "util/rng.hpp"

namespace psc {

struct MultiRwParams {
  RwParams base;        // node/num_nodes/c/delta/d2_prime/two_eps/v0
  int num_objects = 1;  // objects are 0 .. num_objects-1
};

class MultiRwAlgorithm final : public Machine {
 public:
  explicit MultiRwAlgorithm(const MultiRwParams& params);

  std::int64_t value(std::int64_t obj) const;

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time now) override;
  std::vector<Action> enabled(Time now) const override;
  void apply_local(const Action& a, Time now) override;
  Time upper_bound(Time now) const override;
  Time next_enabled(Time now) const override;

 private:
  struct UpdateRecord {
    int proc = 0;
    std::int64_t value = 0;
    Time update_time = 0;
  };
  struct ObjectState {
    std::int64_t value;
    std::vector<UpdateRecord> updates;
  };
  struct ReadRecord {
    bool active = false;
    std::int64_t obj = 0;
    Time time = 0;
  };
  enum class WriteStatus { kInactive, kSend, kAck };
  struct WriteRecord {
    WriteStatus status = WriteStatus::kInactive;
    std::int64_t obj = 0;
    std::int64_t value = 0;
    std::vector<int> send_procs;
    Time send_time = 0;
    Time ack_time = 0;
  };

  ObjectState& state_of(std::int64_t obj);
  const ObjectState* find_state(std::int64_t obj) const;
  bool update_due(std::int64_t obj, Time now) const;
  bool any_update_due(Time now) const;
  Time mintime() const;

  MultiRwParams params_;
  std::map<std::int64_t, ObjectState> objects_;
  ReadRecord read_;
  WriteRecord write_;
};

std::vector<std::unique_ptr<Machine>> make_multi_rw_algorithms(
    int num_nodes, const MultiRwParams& base);

// Closed-loop client over K objects; written values unique per client.
class MultiRwClient final : public Machine {
 public:
  struct Options {
    int node = 0;
    int num_objects = 1;
    int num_ops = 10;
    double write_fraction = 0.5;
    Duration think_min = 0;
    Duration think_max = 0;
    std::uint64_t seed = 1;
  };

  explicit MultiRwClient(const Options& options);

  const std::vector<Operation>& operations() const { return ops_; }
  bool finished() const { return issued_ == options_.num_ops && !busy_; }

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time t) override;
  std::vector<Action> enabled(Time t) const override;
  void apply_local(const Action& a, Time t) override;
  Time upper_bound(Time t) const override;
  Time next_enabled(Time t) const override;

 private:
  Options options_;
  Rng rng_;
  int issued_ = 0;
  bool busy_ = false;
  Time next_issue_ = 0;
  Operation current_{};
  std::vector<Operation> ops_;
};

struct MultiRunResult {
  std::vector<Operation> ops;
  TimedTrace events;
};

// Clock-model deployment of the multi-object register via Simulation 1
// (same config as run_rw_clock; defined in rw/harness.hpp).
MultiRunResult run_multi_rw_clock(const RwRunConfig& cfg,
                                  const DriftModel& drift, int num_objects);

}  // namespace psc
