// E8 / E9 — ablations that motivate the paper's two mechanisms.
//
//  (a) Receive buffers (Simulation 1): a tag-echo workload on bare clocked
//      nodes counts messages arriving "in the clock past" (Lamport's
//      condition broken); the Simulation-1 assembly must bring that to 0.
//      Notable finding recorded here: algorithm S itself never needs the
//      buffers (it schedules effects d2' ahead of the sender's clock), so
//      the ablation uses a receive-time-sensitive workload.
//  (b) The 2eps read wait (algorithm S vs L): transformed L violates plain
//      linearizability under opposing clock offsets at a measurable rate;
//      transformed S never does (Theorem 6.5).
//  (c) The design-rule ablations for the extra algorithms: election slots
//      and heartbeat timeouts chosen against d2 instead of d2 + 2eps.
#include <algorithm>

#include "algos/election.hpp"
#include "algos/heartbeat.hpp"
#include "common.hpp"
#include "rw/harness.hpp"
#include "runtime/script.hpp"
#include "transform/clock_system.hpp"

using namespace psc;

namespace {

// --- (a) tag echo ------------------------------------------------------------

class TagEcho final : public Machine {
 public:
  TagEcho(int node, int peer, bool initiator, int max_sends)
      : Machine("tagecho_" + std::to_string(node)),
        node_(node),
        peer_(peer),
        pending_(initiator ? 1 : 0),
        max_sends_(max_sends) {}

  int violations = 0;
  int received = 0;

  void declare_signature(SignatureDecl& decl) const override {
    decl.input("RECVMSG", node_);
    decl.output("SENDMSG", node_);
  }
  void apply_input(const Action& a, Time clock) override {
    ++received;
    if (as_int(a.msg->fields.at(0)) > clock) ++violations;
    ++pending_;
  }
  std::vector<Action> enabled(Time clock) const override {
    if (pending_ > 0 && sent_ < max_sends_) {
      return {make_send(node_, peer_, make_message("TAG", {Value{clock}}))};
    }
    return {};
  }
  void apply_local(const Action&, Time) override {
    --pending_;
    ++sent_;
  }
  Time upper_bound(Time t) const override {
    return (pending_ > 0 && sent_ < max_sends_) ? t : kTimeMax;
  }

 private:
  int node_, peer_;
  int pending_ = 0;
  int sent_ = 0;
  int max_sends_;
};

struct TagOutcome {
  int violations = 0;
  int received = 0;
};

TagOutcome tag_echo(bool with_buffers, Duration eps, Duration d2,
                    std::uint64_t seed) {
  Executor exec({.horizon = milliseconds(50), .seed = seed});
  Rng rng(seed);
  std::vector<std::shared_ptr<const ClockTrajectory>> trajs;
  trajs.push_back(std::make_shared<ClockTrajectory>(
      OffsetDrift(+1.0).generate(eps, seconds(1), rng)));
  trajs.push_back(std::make_shared<ClockTrajectory>(
      OffsetDrift(-1.0).generate(eps, seconds(1), rng)));
  auto e0 = std::make_unique<TagEcho>(0, 1, true, 60);
  auto e1 = std::make_unique<TagEcho>(1, 0, false, 60);
  TagEcho* p0 = e0.get();
  TagEcho* p1 = e1.get();
  ChannelConfig cc;
  cc.d1 = 0;
  cc.d2 = d2;
  cc.seed = seed;
  if (with_buffers) {
    std::vector<std::unique_ptr<Machine>> algos;
    algos.push_back(std::move(e0));
    algos.push_back(std::move(e1));
    add_clock_system(exec, Graph::complete(2), cc, std::move(algos), trajs);
  } else {
    exec.add_owned(std::make_unique<ClockedMachine>(std::move(e0), trajs[0]));
    exec.add_owned(std::make_unique<ClockedMachine>(std::move(e1), trajs[1]));
    Rng seeder(seed);
    exec.add_owned(std::make_unique<Channel>(0, 1, cc.d1, cc.d2,
                                             DelayPolicy::uniform(),
                                             seeder.split()));
    exec.add_owned(std::make_unique<Channel>(1, 0, cc.d1, cc.d2,
                                             DelayPolicy::uniform(),
                                             seeder.split()));
    exec.hide("SENDMSG");
    exec.hide("RECVMSG");
  }
  bench::warn_event_cap(exec.run().hit_event_cap, "tag_echo");
  return {p0->violations + p1->violations, p0->received + p1->received};
}

}  // namespace

int main() {
  bench::banner("E8/E9: ablations (why buffers, why the 2eps wait)");

  // (a) tag echo.
  {
    Table table({"eps (us)", "d2 (us)", "assembly", "msgs", "clock-past %"});
    bool bare_violates = false, buffered_clean = true;
    for (const Duration eps : {microseconds(30), microseconds(80)}) {
      const Duration d2 = eps / 2;  // d2 << 2 eps
      for (const bool buffered : {false, true}) {
        TagOutcome total{};
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
          const auto o = tag_echo(buffered, eps, d2, seed);
          total.violations += o.violations;
          total.received += o.received;
        }
        const double pct = 100.0 * total.violations /
                           std::max(1, total.received);
        table.row(bench::us(static_cast<double>(eps)),
                  bench::us(static_cast<double>(d2)),
                  buffered ? "Sim1 (S/R buffers)" : "bare clocked",
                  total.received, pct);
        if (!buffered && total.violations > 0) bare_violates = true;
        if (buffered && total.violations > 0) buffered_clean = false;
      }
    }
    table.print(std::cout);
    bench::shape(bare_violates,
                 "bare clocked nodes receive messages in the clock past");
    bench::shape(buffered_clean,
                 "Simulation-1 buffers eliminate clock-past delivery");
  }

  // (b) L vs S in the clock model.
  {
    RwRunConfig cfg;
    cfg.num_nodes = 3;
    cfg.d1 = 0;
    cfg.d2 = microseconds(100);
    cfg.eps = microseconds(60);
    cfg.c = 0;
    cfg.ops_per_node = 15;
    cfg.think_max = microseconds(30);
    cfg.horizon = seconds(30);
    OpposingOffsetDrift drift;
    Table table({"algorithm", "runs", "non-linearizable runs"});
    int l_viol = 0, s_viol = 0;
    const int runs = 25;
    for (const bool super : {false, true}) {
      cfg.super = super;
      int viol = 0;
      for (std::uint64_t seed = 1; seed <= runs; ++seed) {
        cfg.seed = seed;
        const auto run = run_rw_clock(cfg, drift);
        if (!check_linearizable(run.ops, cfg.v0).ok) ++viol;
      }
      (super ? s_viol : l_viol) = viol;
      table.row(super ? "S (2eps wait)" : "L (no wait)", runs, viol);
    }
    table.print(std::cout);
    bench::shape(l_viol > 0,
                 "transformed L violates plain linearizability (it only "
                 "solves P_eps)");
    bench::shape(s_viol == 0, "transformed S never violates (Theorem 6.5)");
  }

  // (c) election slot rule.
  {
    const Duration d2 = microseconds(100), eps = microseconds(40);
    OpposingOffsetDrift drift;
    auto run_election = [&](Duration slot, std::uint64_t seed) {
      Executor exec({.horizon = seconds(10), .seed = seed});
      ElectionParams p;
      p.slot = slot;
      p.d2_design = timed_d2(d2, eps);
      auto nodes = make_election_nodes(5, p);
      std::vector<ElectionNode*> handles;
      for (auto& m : nodes) {
        handles.push_back(dynamic_cast<ElectionNode*>(m.get()));
      }
      std::vector<std::shared_ptr<const ClockTrajectory>> trajs;
      Rng seeder(seed ^ 0xdddd);
      for (int i = 0; i < 5; ++i) {
        Rng r = seeder.split();
        trajs.push_back(std::make_shared<ClockTrajectory>(
            drift.generate(eps, seconds(10), r)));
      }
      ChannelConfig cc;
      cc.d1 = 0;
      cc.d2 = d2;
      cc.seed = seed;
      add_clock_system(exec, Graph::complete(5), cc, std::move(nodes), trajs);
      bench::warn_event_cap(exec.run().hit_event_cap, "election cell");
      int claims = 0;
      bool unanimous = true;
      for (auto* h : handles) {
        if (h->claimed()) ++claims;
        unanimous = unanimous && h->announced() == 4;
      }
      return std::pair<int, bool>(claims, unanimous);
    };
    Table table({"slot rule", "runs", "multi-claim runs", "unanimous"});
    int naive_multi = 0, correct_multi = 0;
    bool all_unanimous = true;
    for (const bool correct : {false, true}) {
      const Duration slot = correct ? timed_d2(d2, eps) + microseconds(10)
                                    : d2 + microseconds(2);
      int multi = 0;
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const auto [claims, unanimous] = run_election(slot, seed);
        if (claims > 1) ++multi;
        all_unanimous = all_unanimous && unanimous;
      }
      (correct ? correct_multi : naive_multi) = multi;
      table.row(correct ? "slot > d2 + 2eps" : "slot > d2 (naive)", 20, multi,
                all_unanimous ? "yes" : "NO");
    }
    table.print(std::cout);
    bench::shape(naive_multi > 0, "naive slot rule loses single-claim");
    bench::shape(correct_multi == 0, "2eps-aware slot rule keeps it");
    bench::shape(all_unanimous, "unanimity holds in every variant");
  }

  // (d) heartbeat timeout rule.
  {
    const Duration period = microseconds(100), d2 = microseconds(30),
                   eps = microseconds(40);
    ZigzagDrift drift(0.45);
    auto run_hb = [&](Duration timeout, std::uint64_t seed) {
      Executor exec({.horizon = milliseconds(50), .seed = seed});
      std::vector<std::unique_ptr<Machine>> algos;
      algos.push_back(std::make_unique<HeartbeatSender>(0, 1, period));
      auto monitor = std::make_unique<HeartbeatMonitor>(1, 0, timeout);
      HeartbeatMonitor* mp = monitor.get();
      algos.push_back(std::move(monitor));
      std::vector<std::shared_ptr<const ClockTrajectory>> trajs;
      Rng seeder(seed ^ 0xbeef);
      for (int i = 0; i < 2; ++i) {
        Rng r = seeder.split();
        trajs.push_back(std::make_shared<ClockTrajectory>(
            drift.generate(eps, seconds(1), r)));
      }
      ChannelConfig cc;
      cc.d1 = 0;
      cc.d2 = d2;
      cc.policy = [d2] { return DelayPolicy::fixed(d2 / 2); };
      cc.seed = seed;
      add_clock_system(exec, Graph::complete(2), cc, std::move(algos), trajs);
      bench::warn_event_cap(exec.run().hit_event_cap, "suspicion cell");
      return mp->suspected();
    };
    Table table({"timeout rule", "runs", "false suspicions"});
    int naive_false = 0, correct_false = 0;
    for (const bool correct : {false, true}) {
      const Duration timeout =
          correct ? period + timed_d2(d2, eps) + microseconds(5)
                  : period + d2 + microseconds(1);
      int falses = 0;
      for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        if (run_hb(timeout, seed)) ++falses;
      }
      (correct ? correct_false : naive_false) = falses;
      table.row(correct ? "timeout > period + d2 + 2eps"
                        : "timeout > period + d2 (naive)",
                16, falses);
    }
    table.print(std::cout);
    bench::shape(naive_false > 0, "naive timeout falsely suspects");
    bench::shape(correct_false == 0, "2eps-aware timeout never does");
  }

  return bench::finish();
}
