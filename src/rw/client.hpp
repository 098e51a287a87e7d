// Closed-loop register clients.
//
// Each client drives one node's external interface: it issues READ_i /
// WRITE_i(v) invocations, waits for the matching RETURN_i / ACK_i response
// (so the alternation condition of Section 6.1 holds by construction),
// thinks for a pseudo-random interval, and repeats. Written values are
// globally unique (node id * 2^32 + sequence), which keeps linearizability
// checking cheap and makes "who wrote what" unambiguous in traces.
//
// Clients are *timed-model* machines driven by real time — they model the
// external environment, which lives outside the clock/MMT transformations.
#pragma once

#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "rw/spec.hpp"
#include "util/rng.hpp"

namespace psc {

struct ClientOptions {
  int node = 0;
  int num_ops = 10;
  double write_fraction = 0.5;  // probability an op is a write
  Duration think_min = 0;       // think time between response and next op
  Duration think_max = 0;
  Time start_at = 0;
  std::uint64_t seed = 1;
};

class RwClient final : public Machine {
 public:
  explicit RwClient(const ClientOptions& options);

  // Completed operations with invocation/response times, for the checkers.
  const std::vector<Operation>& operations() const { return ops_; }
  bool finished() const { return issued_ == options_.num_ops && !busy_; }

  void declare_signature(SignatureDecl& decl) const override;
  void apply_input(const Action& a, Time t) override;
  std::vector<Action> enabled(Time t) const override;
  void apply_local(const Action& a, Time t) override;
  Time upper_bound(Time t) const override;
  Time next_enabled(Time t) const override;

 private:
  std::int64_t fresh_value();

  ClientOptions options_;
  Rng rng_;
  int issued_ = 0;
  bool busy_ = false;          // invocation outstanding
  Time next_issue_ = 0;
  Operation current_{};        // partially filled while busy
  std::vector<Operation> ops_;
};

// One client per node.
std::vector<std::unique_ptr<Machine>> make_clients(
    int num_nodes, const ClientOptions& base, std::uint64_t seed,
    std::vector<RwClient*>* handles);

// Collects the completed operations of all clients, time-ordered by
// invocation.
std::vector<Operation> collect_operations(
    const std::vector<RwClient*>& clients);

}  // namespace psc
