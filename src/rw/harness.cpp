#include "rw/harness.hpp"

#include "mmt/mmt_system.hpp"
#include "obs/instrument.hpp"
#include "rw/sliced.hpp"
#include "runtime/clocked.hpp"
#include "runtime/composite.hpp"
#include "runtime/executor.hpp"
#include "runtime/system.hpp"
#include "transform/clock_system.hpp"
#include "util/check.hpp"

namespace psc {

namespace {

RwParams algo_params(const RwRunConfig& cfg, Duration d2_prime) {
  RwParams p;
  p.num_nodes = cfg.num_nodes;
  p.c = cfg.c;
  p.delta = cfg.delta;
  p.d2_prime = d2_prime;
  p.two_eps = cfg.super ? 2 * cfg.eps : 0;
  p.v0 = cfg.v0;
  return p;
}

ClientOptions client_options(const RwRunConfig& cfg) {
  ClientOptions o;
  o.num_ops = cfg.ops_per_node;
  o.think_min = cfg.think_min;
  o.think_max = cfg.think_max;
  o.write_fraction = cfg.write_fraction;
  return o;
}

std::vector<std::shared_ptr<const ClockTrajectory>> make_trajectories(
    const RwRunConfig& cfg, const DriftModel& drift) {
  std::vector<std::shared_ptr<const ClockTrajectory>> out;
  Rng seeder(cfg.seed ^ 0xc1c1c1c1ULL);
  for (int i = 0; i < cfg.num_nodes; ++i) {
    Rng r = seeder.split();
    auto traj = std::make_shared<ClockTrajectory>(
        drift.generate(cfg.eps, cfg.horizon, r));
    traj->validate(cfg.horizon);
    out.push_back(std::move(traj));
  }
  return out;
}

RwRunResult finish(Executor& exec, const std::vector<RwClient*>& clients,
                   const RunObserver& observer) {
  const auto report = exec.run();
  RwRunResult result;
  result.ops = collect_operations(clients);
  result.events = exec.events();
  result.end_time = report.end_time;
  result.report = report;
  if (const BoundSlackProbe* sp = observer.slack()) {
    result.min_slack_ceps = sp->min_ceps();
    result.min_slack_delivery = sp->min_delivery();
    result.min_slack_thm47 = sp->min_thm47();
    result.min_slack_mmt = sp->min_mmt();
    result.min_slack = sp->min_slack();
    result.slack_violations = sp->violations();
  }
  return result;
}

void add_clients(Executor& exec, const RwRunConfig& cfg,
                 std::vector<RwClient*>* handles) {
  auto clients =
      make_clients(cfg.num_nodes, client_options(cfg), cfg.seed ^ 0xc7, handles);
  for (auto& c : clients) exec.add_owned(std::move(c));
}

// The executor of a register system with its clients added, before the
// nodes and channels.
RwAssembly assembly_with_clients(const RwRunConfig& cfg) {
  RwAssembly a;
  a.exec = std::make_unique<Executor>(ExecutorOptions{
      .horizon = cfg.horizon, .seed = cfg.seed, .validate = cfg.validate});
  add_clients(*a.exec, cfg, &a.clients);
  return a;
}

ChannelConfig channel_config(const RwRunConfig& cfg) {
  ChannelConfig cc;
  cc.d1 = cfg.d1;
  cc.d2 = cfg.d2;
  cc.seed = cfg.seed ^ 0xe5e5;
  return cc;
}

// Points a Sim1BufferProbe (occupancy/hold metrics) and a CausalTraceProbe
// (kBuffer edge clock-hold annotation via the release hook) at the S/R
// buffers inside one node composite. Either may be null.
void watch_node_buffers(Sim1BufferProbe* bp, CausalTraceProbe* cp,
                        CompositeMachine& comp) {
  for (std::size_t k = 0; k < comp.size(); ++k) {
    if (auto* rb = dynamic_cast<ReceiveBuffer*>(&comp.member(k))) {
      if (bp != nullptr) bp->watch(rb);
      if (cp != nullptr) cp->watch(rb);
    } else if (const auto* sb =
                   dynamic_cast<const SendBuffer*>(&comp.member(k))) {
      if (bp != nullptr) bp->watch(sb);
    }
  }
}

}  // namespace

RwAssembly assemble_rw_timed(const RwRunConfig& cfg) {
  RwAssembly a = assembly_with_clients(cfg);
  const Graph g = Graph::complete_with_self_loops(cfg.num_nodes);
  add_timed_system(*a.exec, g, channel_config(cfg),
                   make_rw_algorithms(cfg.num_nodes, algo_params(cfg, cfg.d2)));
  return a;
}

RwAssembly assemble_rw_clock(const RwRunConfig& cfg, const DriftModel& drift) {
  RwAssembly a = assembly_with_clients(cfg);
  const Graph g = Graph::complete_with_self_loops(cfg.num_nodes);
  // Theorem 4.7: design the algorithm against [max(d1-2eps,0), d2+2eps].
  auto algos = make_rw_algorithms(cfg.num_nodes,
                                  algo_params(cfg, timed_d2(cfg.d2, cfg.eps)));
  a.trajectories = make_trajectories(cfg, drift);
  a.clock_nodes = add_clock_system(*a.exec, g, channel_config(cfg),
                                   std::move(algos), a.trajectories)
                      .nodes;
  return a;
}

RwAssembly assemble_rw_mmt(const RwRunConfig& cfg, const DriftModel& drift,
                           Duration ell, int k) {
  RwAssembly a = assembly_with_clients(cfg);
  const Graph g = Graph::complete_with_self_loops(cfg.num_nodes);
  auto algos = make_rw_algorithms(
      cfg.num_nodes, algo_params(cfg, mmt_d2(cfg.d2, cfg.eps, k, ell)));
  MmtConfig mc;
  mc.ell = ell;
  mc.seed = cfg.seed ^ 0x4d4d54;
  a.trajectories = make_trajectories(cfg, drift);
  a.mmt_nodes = add_mmt_system(*a.exec, g, channel_config(cfg),
                               std::move(algos), a.trajectories, mc)
                    .nodes;
  // The MMT tick/step machinery never quiesces; stop once every client has
  // completed its workload.
  a.exec->stop_when([clients = a.clients] {
    for (const auto* c : clients) {
      if (!c->finished()) return false;
    }
    return true;
  });
  return a;
}

RwRunResult run_rw_timed(const RwRunConfig& cfg) {
  RwAssembly a = assemble_rw_timed(cfg);
  RunObserver observer(cfg.obs);
  observer.add_channel_latency(cfg.d1, cfg.d2);
  // No clocks in the timed model: delivery slack only.
  observer.add_slack({.d1 = cfg.d1, .d2 = cfg.d2});
  observer.attach(*a.exec);
  return finish(*a.exec, a.clients, observer);
}

RwRunResult run_rw_clock(const RwRunConfig& cfg, const DriftModel& drift) {
  RwAssembly a = assemble_rw_clock(cfg, drift);
  RunObserver observer(cfg.obs);
  observer.add_clock_skew(a.trajectories, cfg.eps);
  observer.add_channel_latency(cfg.d1, cfg.d2);
  observer.add_slack({.eps = cfg.eps, .d1 = cfg.d1, .d2 = cfg.d2});
  Sim1BufferProbe* bp = observer.add_buffers();
  CausalTraceProbe* cp = cfg.obs != nullptr ? cfg.obs->causal : nullptr;
  if (bp != nullptr || cp != nullptr) {
    for (auto* node : a.clock_nodes) {
      watch_node_buffers(bp, cp,
                         dynamic_cast<CompositeMachine&>(node->inner()));
    }
  }
  observer.attach(*a.exec);
  auto result = finish(*a.exec, a.clients, observer);
  result.trajectories = std::move(a.trajectories);
  for (auto* node : a.clock_nodes) {
    auto& comp = dynamic_cast<CompositeMachine&>(node->inner());
    for (std::size_t k = 0; k < comp.size(); ++k) {
      if (const auto* rb = dynamic_cast<const ReceiveBuffer*>(&comp.member(k))) {
        const auto& s = rb->stats();
        result.buffer_totals.received += s.received;
        result.buffer_totals.buffered += s.buffered;
        result.buffer_totals.total_hold += s.total_hold;
        result.buffer_totals.max_hold =
            std::max(result.buffer_totals.max_hold, s.max_hold);
      }
    }
  }
  return result;
}

RwAssembly assemble_rw_sliced(const RwRunConfig& cfg,
                              const DriftModel& drift) {
  RwAssembly a = assembly_with_clients(cfg);
  const Graph g = Graph::complete(cfg.num_nodes);
  SlicedParams sp;
  sp.num_nodes = cfg.num_nodes;
  sp.u = 2 * cfg.eps;
  sp.d2 = cfg.d2;
  sp.v0 = cfg.v0;
  auto algos = make_sliced_algorithms(cfg.num_nodes, sp);
  a.trajectories = make_trajectories(cfg, drift);
  for (int i = 0; i < cfg.num_nodes; ++i) {
    auto node = std::make_unique<ClockedMachine>(
        std::move(algos[static_cast<std::size_t>(i)]),
        a.trajectories[static_cast<std::size_t>(i)]);
    a.clock_nodes.push_back(node.get());
    a.exec->add_owned(std::move(node));
  }
  Rng seeder(cfg.seed ^ 0xe5e5);
  ChannelConfig cc = channel_config(cfg);
  for (const auto& [i, j] : g.edges) {
    a.exec->add_owned(std::make_unique<Channel>(i, j, cc.d1, cc.d2,
                                                cc.policy(), seeder.split()));
  }
  a.exec->hide(names::kSendMsg);
  a.exec->hide(names::kRecvMsg);
  return a;
}

RwRunResult run_rw_sliced(const RwRunConfig& cfg, const DriftModel& drift) {
  RwAssembly a = assemble_rw_sliced(cfg, drift);
  RunObserver observer(cfg.obs);
  observer.add_clock_skew(a.trajectories, cfg.eps);
  observer.add_channel_latency(cfg.d1, cfg.d2);
  observer.add_slack({.eps = cfg.eps, .d1 = cfg.d1, .d2 = cfg.d2});
  observer.attach(*a.exec);
  auto result = finish(*a.exec, a.clients, observer);
  result.trajectories = std::move(a.trajectories);
  return result;
}

RwRunResult run_rw_mmt(const RwRunConfig& cfg, const DriftModel& drift,
                       Duration ell, int k) {
  RwAssembly a = assemble_rw_mmt(cfg, drift, ell, k);
  RunObserver observer(cfg.obs);
  observer.add_clock_skew(a.trajectories, cfg.eps);
  observer.add_channel_latency(cfg.d1, cfg.d2);
  if (MmtProbe* mp = observer.add_mmt()) {
    for (const auto* node : a.mmt_nodes) mp->watch(node);
  }
  observer.add_slack({.eps = cfg.eps, .d1 = cfg.d1, .d2 = cfg.d2, .ell = ell});
  observer.attach(*a.exec);
  auto result = finish(*a.exec, a.clients, observer);
  result.trajectories = std::move(a.trajectories);
  return result;
}

RwRunResult run_rw_clock_nobuffer(const RwRunConfig& cfg,
                                  const DriftModel& drift) {
  Executor exec({.horizon = cfg.horizon, .seed = cfg.seed, .validate = cfg.validate});
  std::vector<RwClient*> clients;
  add_clients(exec, cfg, &clients);
  const Graph g = Graph::complete_with_self_loops(cfg.num_nodes);
  auto algos = make_rw_algorithms(cfg.num_nodes,
                                  algo_params(cfg, timed_d2(cfg.d2, cfg.eps)));
  auto trajs = make_trajectories(cfg, drift);
  for (int i = 0; i < cfg.num_nodes; ++i) {
    exec.add_owned(std::make_unique<ClockedMachine>(
        std::move(algos[static_cast<std::size_t>(i)]),
        trajs[static_cast<std::size_t>(i)]));
  }
  Rng seeder(cfg.seed ^ 0xe5e5);
  ChannelConfig cc = channel_config(cfg);
  for (const auto& [i, j] : g.edges) {
    exec.add_owned(std::make_unique<Channel>(i, j, cc.d1, cc.d2, cc.policy(),
                                             seeder.split()));
  }
  exec.hide("SENDMSG");
  exec.hide("RECVMSG");
  RunObserver observer(cfg.obs);
  observer.add_clock_skew(trajs, cfg.eps);
  observer.add_channel_latency(cfg.d1, cfg.d2);
  observer.add_slack({.eps = cfg.eps, .d1 = cfg.d1, .d2 = cfg.d2});
  observer.attach(exec);
  auto result = finish(exec, clients, observer);
  result.trajectories = std::move(trajs);
  return result;
}

Duration bound_read_timed(const RwRunConfig& cfg) {
  return cfg.c + cfg.delta + (cfg.super ? 2 * cfg.eps : 0);
}
Duration bound_write_timed(const RwRunConfig& cfg) { return cfg.d2 - cfg.c; }
Duration bound_read_clock(const RwRunConfig& cfg) {
  return 2 * cfg.eps + cfg.delta + cfg.c;
}
Duration bound_write_clock(const RwRunConfig& cfg) {
  return cfg.d2 + 2 * cfg.eps - cfg.c;
}
Duration bound_read_sliced(const RwRunConfig& cfg) { return 8 * cfg.eps; }
Duration bound_write_sliced(const RwRunConfig& cfg) {
  return cfg.d2 + 6 * cfg.eps;
}

}  // namespace psc
