// Quickstart: define a tiny timed-model algorithm, compose it with channels,
// run it, and inspect the timed trace.
//
// The algorithm: node 0 sends PING every millisecond; node 1 replies PONG
// on receipt. Both are precondition/effect Machines (Section 3's
// programming model); the channel is the Figure 1 edge automaton with delay
// in [100us, 400us].
//
// Build & run:  ./quickstart
#include <iostream>

#include "core/machine.hpp"
#include "runtime/executor.hpp"
#include "runtime/system.hpp"

using namespace psc;

namespace {

// A machine that broadcasts PING every `period`.
class Pinger final : public Machine {
 public:
  Pinger(int node, int peer, Duration period, int count)
      : Machine("pinger"), node_(node), peer_(peer), period_(period),
        remaining_(count) {}

  // The signature (Def 2.1): SENDMSG is an output, RECVMSG an input.
  void declare_signature(SignatureDecl& decl) const override {
    decl.output("SENDMSG", node_);
    decl.input("RECVMSG", node_);
  }
  void apply_input(const Action& a, Time t) override {
    std::cout << "  [pinger] got " << a.msg->kind << " at "
              << format_time(t) << "\n";
  }
  // Preconditions: overwrite `out` with the local actions enabled at t.
  void enabled_into(Time t, Candidates& out) const override {
    out.clear();
    if (remaining_ > 0 && t >= next_) {
      out.push_back(make_send(node_, peer_, make_message("PING")));
    }
  }
  void apply_local(const Action&, Time) override {
    next_ += period_;
    --remaining_;
  }
  // The nu-precondition: time may not pass a scheduled send (urgency).
  Time upper_bound(Time t) const override {
    if (remaining_ <= 0) return kTimeMax;
    return next_ <= t ? t : next_;
  }
  Time next_enabled(Time t) const override {
    return (remaining_ > 0 && next_ > t) ? next_ : kTimeMax;
  }

 private:
  int node_, peer_;
  Duration period_;
  int remaining_;
  Time next_ = 0;
};

// A machine that answers every PING with a PONG.
class Responder final : public Machine {
 public:
  Responder(int node, int peer) : Machine("responder"), node_(node),
                                  peer_(peer) {}

  void declare_signature(SignatureDecl& decl) const override {
    decl.input("RECVMSG", node_);
    decl.output("SENDMSG", node_);
  }
  void apply_input(const Action&, Time) override { ++owed_; }
  void enabled_into(Time, Candidates& out) const override {
    out.clear();
    if (owed_ > 0) out.push_back(make_send(node_, peer_, make_message("PONG")));
  }
  void apply_local(const Action&, Time) override { --owed_; }
  Time upper_bound(Time t) const override {
    return owed_ > 0 ? t : kTimeMax;  // reply immediately
  }

 private:
  int node_, peer_;
  int owed_ = 0;
};

}  // namespace

int main() {
  std::cout << "psc quickstart: 2-node ping/pong in the timed model\n\n";

  Executor exec({.horizon = milliseconds(5), .seed = 42});

  std::vector<std::unique_ptr<Machine>> algorithms;
  algorithms.push_back(
      std::make_unique<Pinger>(0, 1, milliseconds(1), /*count=*/4));
  algorithms.push_back(std::make_unique<Responder>(1, 0));

  ChannelConfig channels;
  channels.d1 = microseconds(100);
  channels.d2 = microseconds(400);
  add_timed_system(exec, Graph::complete(2), channels,
                   std::move(algorithms));

  const auto report = exec.run();

  std::cout << "\nfull event log (SENDMSG/RECVMSG are hidden actions):\n";
  std::cout << to_string(exec.events());
  std::cout << "executed " << report.steps << " steps, ended at "
            << format_time(report.end_time) << "\n";
  return 0;
}
