// Static interference & bound-certificate analyzer tests (PSC2xx layer).
//
// Three groups:
//   - clean certification of the shipped flood/rw-clock/queue assemblies
//     (zero error-severity PSC2xx diagnostics, nonempty path certificates);
//   - a seeded violation suite producing each PSC2xx code exactly: vacuous
//     hop window (201), zero-lookahead relay cycle (202), eps-inconsistent
//     path (204), harvested bound outside the declared system bound (205),
//     observed latency outside a derived certificate (206, via
//     CertificateProbe), and the coverage summary note (208);
//   - scale: the 65,536-machine certification-time gate (< 5 s —
//     certification must never become the O(n^2) assembly path PR 7
//     removed).
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/flood.hpp"
#include "analysis/bounds.hpp"
#include "analysis/interference.hpp"
#include "analysis/lint.hpp"
#include "analysis/windows.hpp"
#include "channel/channel.hpp"
#include "clock/trajectory.hpp"
#include "runtime/executor.hpp"
#include "runtime/fuzzer.hpp"
#include "runtime/script.hpp"
#include "runtime/system.hpp"
#include "rw/algorithm.hpp"
#include "rw/client.hpp"
#include "rw/queue.hpp"
#include "transform/clock_system.hpp"
#include "util/check.hpp"

namespace psc {
namespace {

std::vector<std::shared_ptr<const ClockTrajectory>> flat_trajectories(
    int n, Duration eps) {
  std::vector<std::shared_ptr<const ClockTrajectory>> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(std::make_shared<const ClockTrajectory>(
        std::vector<Breakpoint>{{0, 0}}, eps));
  }
  return out;
}

// The same assemblies psc-lint --certify builds (never run).
void assemble_flood(Executor& exec, int nodes, Duration d1, Duration d2) {
  const Graph g = Graph::ring(nodes);
  ChannelConfig cc;
  cc.d1 = d1;
  cc.d2 = d2;
  cc.seed = 1;
  add_timed_system(exec, g, cc,
                   make_flood_nodes(g, 0, 42, g.n, d2, microseconds(1)));
}

void assemble_rw_clock(Executor& exec, int nodes, Duration d1, Duration d2,
                       Duration eps) {
  ChannelConfig cc;
  cc.d1 = d1;
  cc.d2 = d2;
  cc.seed = 1;
  auto clients = make_clients(nodes, ClientOptions{}, 0xc7, nullptr);
  for (auto& c : clients) exec.add_owned(std::move(c));
  RwParams base;
  base.num_nodes = nodes;
  base.d2_prime = timed_d2(d2, eps);
  base.two_eps = 2 * eps;
  add_clock_system(exec, Graph::complete_with_self_loops(nodes), cc,
                   make_rw_algorithms(nodes, base),
                   flat_trajectories(nodes, eps));
}

void assemble_queue(Executor& exec, int nodes, Duration d1, Duration d2,
                    Duration eps) {
  ChannelConfig cc;
  cc.d1 = d1;
  cc.d2 = d2;
  cc.seed = 1;
  for (int i = 0; i < nodes; ++i) {
    QueueClient::Options o;
    o.node = i;
    o.seed = 7 + static_cast<std::uint64_t>(i);
    exec.add_owned(std::make_unique<QueueClient>(o));
  }
  add_clock_system(exec, Graph::complete_with_self_loops(nodes), cc,
                   make_queue_nodes(nodes, timed_d2(d2, eps), /*delta=*/1),
                   flat_trajectories(nodes, eps));
}

// A fully declarative machine with scripted signature entries and
// configurable model traits — the seed for the PSC201/204/205 baits.
class DeclMachine final : public Machine {
 public:
  DeclMachine(std::string name, std::vector<SignatureDecl::Entry> entries,
              ModelTraits traits = {})
      : Machine(std::move(name)),
        entries_(std::move(entries)),
        traits_(traits) {}

  void declare_signature(SignatureDecl& decl) const override {
    for (const auto& e : entries_) decl.add(e.name, e.node, e.peer, e.role);
  }
  ModelTraits model_traits() const override { return traits_; }
  void apply_input(const Action&, Time) override {}
  void enabled_into(Time, Candidates& out) const override {
    out.clear();
  }
  void apply_local(const Action&, Time) override {}

 private:
  std::vector<SignatureDecl::Entry> entries_;
  ModelTraits traits_;
};

SignatureDecl::Entry entry(const char* name, int node, int peer,
                           ActionRole role) {
  SignatureDecl::Entry e;
  e.name = name;
  e.node = node;
  e.peer = peer;
  e.role = role;
  return e;
}

// --- clean certification of the shipped assemblies -------------------------

TEST(CertifyTest, FloodRingCertifiesClean) {
  Executor exec({.horizon = seconds(1)});
  assemble_flood(exec, 8, microseconds(20), microseconds(300));
  const auto machines = exec.composition();
  const InterferenceGraph g = build_interference_graph(machines);
  EXPECT_EQ(g.nodes.size(), 16u);  // 8 flood nodes + 8 ring channels
  BoundCertOptions opts;
  opts.d1 = microseconds(20);
  opts.d2 = microseconds(300);
  const BoundCert cert = certify_bounds(g, opts);
  EXPECT_FALSE(cert.report.has_errors()) << cert.report.to_text();
  EXPECT_EQ(cert.hops.size(), g.edges.size());
  EXPECT_FALSE(cert.paths.empty());
  // Ring hop certificates: one relay hop is exactly the channel window.
  bool saw_relay_hop = false;
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    if (!g.nodes[g.edges[i].from].is_relay()) continue;
    saw_relay_hop = true;
    EXPECT_EQ(cert.hops[i].window.lo, microseconds(20));
    EXPECT_EQ(cert.hops[i].window.hi, microseconds(300));
  }
  EXPECT_TRUE(saw_relay_hop);
}

TEST(CertifyTest, RwClockCompositionCertifiesClean) {
  Executor exec({.horizon = seconds(1)});
  assemble_rw_clock(exec, 3, microseconds(20), microseconds(300),
                    microseconds(50));
  const auto machines = exec.composition();
  const InterferenceGraph g = build_interference_graph(machines);
  BoundCertOptions opts;
  opts.d1 = microseconds(20);
  opts.d2 = microseconds(300);
  opts.eps = microseconds(50);
  const BoundCert cert = certify_bounds(g, opts);
  EXPECT_FALSE(cert.report.has_errors()) << cert.report.to_text();
  EXPECT_FALSE(cert.paths.empty());
  EXPECT_EQ(cert.eps, microseconds(50));
}

TEST(CertifyTest, QueueCompositionCertifiesClean) {
  Executor exec({.horizon = seconds(1)});
  assemble_queue(exec, 3, microseconds(20), microseconds(300),
                 microseconds(50));
  const auto machines = exec.composition();
  const InterferenceGraph g = build_interference_graph(machines);
  BoundCertOptions opts;
  opts.d1 = microseconds(20);
  opts.d2 = microseconds(300);
  opts.eps = microseconds(50);
  const BoundCert cert = certify_bounds(g, opts);
  EXPECT_FALSE(cert.report.has_errors()) << cert.report.to_text();
  EXPECT_FALSE(cert.paths.empty());
}

// --- seeded PSC2xx violations ----------------------------------------------

TEST(CertifyTest, VacuousHopWindowIsPSC201) {
  // A "relay" whose harvested window is inverted: d1 > d2.
  ModelTraits bad;
  bad.relay_d1 = microseconds(100);
  bad.relay_d2 = microseconds(10);
  DeclMachine relay("badrelay",
                    {entry("IN", 0, kAnyNode, ActionRole::kInput),
                     entry("OUT", 1, 0, ActionRole::kOutput)},
                    bad);
  DeclMachine sink("sink", {entry("OUT", 1, 0, ActionRole::kInput)});
  const InterferenceGraph g = build_interference_graph({&relay, &sink});
  ASSERT_EQ(g.edges.size(), 1u);
  const BoundCert cert = certify_bounds(g);
  EXPECT_EQ(cert.report.count(DiagCode::kVacuousHopWindow), 1u);
  EXPECT_TRUE(cert.report.has_errors());
}

TEST(CertifyTest, ZeroLookaheadRelayCycleIsPSC202) {
  // Two declared forwarders joined by two zero-d1 channels: influence can
  // circulate through the network in zero time, so no conservative PDES
  // window exists.
  auto make_forwarder = [](int node, int peer) {
    auto m = std::make_unique<ScriptMachine>(
        "fwd_" + std::to_string(node),
        std::vector<ScriptMachine::Step>{
            {microseconds(1), make_send(node, peer, make_message("M"))}});
    m->accept_kind("RECVMSG", node);
    return m;
  };
  const auto f0 = make_forwarder(0, 1);
  const auto f1 = make_forwarder(1, 0);
  Channel c01(0, 1, /*d1=*/0, microseconds(300), DelayPolicy::uniform(),
              Rng(1));
  Channel c10(1, 0, /*d1=*/0, microseconds(300), DelayPolicy::uniform(),
              Rng(2));
  const InterferenceGraph g =
      build_interference_graph({f0.get(), &c01, f1.get(), &c10});
  const BoundCert cert = certify_bounds(g);
  EXPECT_EQ(cert.report.count(DiagCode::kZeroLookaheadCycle), 1u);
  EXPECT_TRUE(cert.report.has_errors());

  // The same ring with d1 > 0 has lookahead on every relay hop: clean.
  Channel g01(0, 1, microseconds(20), microseconds(300),
              DelayPolicy::uniform(), Rng(3));
  Channel g10(1, 0, microseconds(20), microseconds(300),
              DelayPolicy::uniform(), Rng(4));
  const InterferenceGraph g2 =
      build_interference_graph({f0.get(), &g01, f1.get(), &g10});
  EXPECT_EQ(certify_bounds(g2).report.count(DiagCode::kZeroLookaheadCycle),
            0u);
}

TEST(CertifyTest, EpsInconsistentPathIsPSC204) {
  ModelTraits eps50;
  eps50.clock_eps = microseconds(50);
  ModelTraits eps80;
  eps80.clock_eps = microseconds(80);
  DeclMachine a("a", {entry("HOP1", 1, kAnyNode, ActionRole::kOutput)},
                eps50);
  DeclMachine b("b",
                {entry("HOP1", 1, kAnyNode, ActionRole::kInput),
                 entry("HOP2", 2, kAnyNode, ActionRole::kOutput)},
                eps80);
  const InterferenceGraph g = build_interference_graph({&a, &b});
  const BoundCert cert = certify_bounds(g);
  EXPECT_EQ(cert.report.count(DiagCode::kEpsInconsistentPath), 1u);
  EXPECT_TRUE(cert.report.has_errors());

  // A uniform-eps system with the same shape is clean.
  DeclMachine b2("b2",
                 {entry("HOP1", 1, kAnyNode, ActionRole::kInput),
                  entry("HOP2", 2, kAnyNode, ActionRole::kOutput)},
                 eps50);
  const InterferenceGraph g2 = build_interference_graph({&a, &b2});
  EXPECT_EQ(certify_bounds(g2).report.count(DiagCode::kEpsInconsistentPath),
            0u);
}

TEST(CertifyTest, HarvestedBoundOutsideDeclaredIsPSC205) {
  // The channel's harvested [10us, 400us] escapes the declared system
  // window [20us, 300us] on both ends.
  DeclMachine env("env",
                  {entry("SENDMSG", 0, 1, ActionRole::kOutput)});
  Channel ch(0, 1, microseconds(10), microseconds(400),
             DelayPolicy::uniform(), Rng(1));
  DeclMachine sink("sink", {entry("RECVMSG", 1, 0, ActionRole::kInput)});
  const InterferenceGraph g = build_interference_graph({&env, &ch, &sink});
  BoundCertOptions opts;
  opts.d1 = microseconds(20);
  opts.d2 = microseconds(300);
  const BoundCert cert = certify_bounds(g, opts);
  EXPECT_EQ(cert.report.count(DiagCode::kCertContradictsDecl), 1u);
  EXPECT_TRUE(cert.report.has_errors());

  // A channel inside the declared window is clean.
  Channel ok(0, 1, microseconds(20), microseconds(300),
             DelayPolicy::uniform(), Rng(2));
  const InterferenceGraph g2 = build_interference_graph({&env, &ok, &sink});
  EXPECT_EQ(certify_bounds(g2, opts).report.count(
                DiagCode::kCertContradictsDecl),
            0u);
}

TEST(CertifyTest, ObservedLatencyOutsideCertificateIsPSC206) {
  // The harvested per-edge window [50us, 100us] is tighter than the
  // declared system window [20us, 300us]: a 150us delivery passes the
  // PSC102-style declared-envelope check but must fail its certificate.
  DeclMachine env("env", {entry("SENDMSG", 0, 1, ActionRole::kOutput)});
  Channel ch(0, 1, microseconds(50), microseconds(100),
             DelayPolicy::uniform(), Rng(1));
  DeclMachine sink("sink", {entry("RECVMSG", 1, 0, ActionRole::kInput)});

  BoundCertOptions opts;
  opts.d1 = microseconds(20);
  opts.d2 = microseconds(300);
  CertificateProbe probe(opts);
  probe.harvest({&env, &ch, &sink});
  ASSERT_TRUE(probe.harvested());
  ASSERT_FALSE(probe.report().has_errors()) << probe.report().to_text();

  auto feed = [&probe, &env](Action a, Time t) {
    TimedEvent e;
    e.action = std::move(a);
    e.time = t;
    probe.on_event(e, env);
  };
  // In-window delivery: clean.
  Message m1 = make_message("M");
  m1.uid = 1;
  const Message m1c = m1;
  feed(make_send(0, 1, std::move(m1)), 0);
  feed(make_recv(1, 0, Message(m1c)), microseconds(80));
  EXPECT_EQ(probe.report().count(DiagCode::kOutsideCertificate), 0u);
  // 150us: inside the declared [20us, 300us], outside the certificate.
  Message m2 = make_message("M");
  m2.uid = 2;
  const Message m2c = m2;
  feed(make_send(0, 1, std::move(m2)), microseconds(1000));
  feed(make_recv(1, 0, Message(m2c)), microseconds(1150));
  EXPECT_EQ(probe.report().count(DiagCode::kOutsideCertificate), 1u);
  EXPECT_TRUE(probe.report().has_errors());
}

TEST(CertifyTest, CertificateProbeOnLiveFloodRunStaysClean) {
  // End-to-end: harvest + online check over a real flood run. Channels
  // sample inside [d1, d2] by construction, so the derived certificates
  // must hold.
  Executor exec({.horizon = seconds(1), .seed = 9});
  assemble_flood(exec, 5, microseconds(20), microseconds(300));
  BoundCertOptions opts;
  opts.d1 = microseconds(20);
  opts.d2 = microseconds(300);
  CertificateProbe probe(opts);
  probe.harvest(exec.composition());
  exec.attach_probe(&probe);
  exec.run();
  EXPECT_FALSE(probe.report().has_errors()) << probe.report().to_text();
  EXPECT_GT(exec.events().size(), 0u);
}

TEST(CertifyTest, CoverageSummaryIsPSC208Note) {
  Executor exec({.horizon = seconds(1)});
  assemble_flood(exec, 4, microseconds(20), microseconds(300));
  const InterferenceGraph g = build_interference_graph(exec.composition());
  const BoundCert cert = certify_bounds(g);
  EXPECT_EQ(cert.report.count(DiagCode::kCertCoverage), 1u);
  EXPECT_EQ(cert.report.errors(), 0u);
  EXPECT_EQ(cert.report.warnings(), 0u);
  EXPECT_GE(cert.report.notes(), 1u);
}

// --- certification at scale ------------------------------------------------

TEST(CertifyTest, CertificationScalesTo65536Machines) {
  // 32768 flood nodes + 32768 channels. The whole static pipeline — wiring
  // lint, graph build, certificates — must finish in < 5 s (the lint and
  // build are name-bucketed; anything quadratic blows this gate by orders
  // of magnitude).
  Executor exec({.horizon = seconds(1)});
  assemble_flood(exec, 32768, microseconds(20), microseconds(300));
  const auto machines = exec.composition();
  ASSERT_EQ(machines.size(), 65536u);

  const auto t0 = std::chrono::steady_clock::now();
  const DiagnosticReport wiring = lint_composition(machines);
  const InterferenceGraph g = build_interference_graph(machines);
  BoundCertOptions opts;
  opts.d1 = microseconds(20);
  opts.d2 = microseconds(300);
  const BoundCert cert = certify_bounds(g, opts);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);

  EXPECT_FALSE(wiring.has_errors());
  EXPECT_FALSE(cert.report.has_errors());
  EXPECT_EQ(g.nodes.size(), 65536u);
  EXPECT_EQ(cert.paths.size(), 65535u);
  EXPECT_LT(elapsed.count(), 5000) << "certification took " << elapsed.count()
                                   << "ms — quadratic path regression";
}

// --- generated machines (declared fuzzer environments) ----------------------

TEST(CertifyTest, GeneratedMachinesAreFullyDeclared) {
  Rng rng(11);
  std::vector<std::unique_ptr<ScriptMachine>> owned;
  std::vector<const Machine*> machines;
  for (int i = 0; i < 8; ++i) {
    GeneratedMachineOptions o;
    o.node = i;
    o.emit_kinds = {"TOK"};
    owned.push_back(make_generated_machine(rng, o));
    machines.push_back(owned.back().get());
  }
  const DiagnosticReport wiring = lint_composition(machines);
  EXPECT_FALSE(wiring.has_errors()) << wiring.to_text();
}

TEST(CertifyTest, GeneratedMachineSatisfiesAxioms) {
  Rng rng(23);
  GeneratedMachineOptions o;
  o.node = 3;
  o.min_steps = 4;
  o.max_steps = 4;
  const auto m = make_generated_machine(rng, o);
  MachineFuzzer fuzz(*m, 5);
  const auto report = fuzz.run(400);
  EXPECT_EQ(report.actions_executed, 4u);
  EXPECT_TRUE(m->done());
}

TEST(CertifyTest, ScriptMachineDeclaresScriptAndAcceptKinds) {
  ScriptMachine s("env",
                  {{10, make_action("PING", 0)},
                   {20, make_action("PING", 0)},
                   {30, make_action("PONG", 1)}});
  s.accept_kind("ACK", 0);
  const SignatureDecl& decl = s.signature();
  ASSERT_EQ(decl.entries().size(), 3u);  // PING(0) deduped
  EXPECT_EQ(decl.entries()[0].name, "PING");
  EXPECT_EQ(decl.entries()[0].role, ActionRole::kOutput);
  EXPECT_EQ(decl.entries()[1].name, "PONG");
  EXPECT_EQ(decl.entries()[2].name, "ACK");
  EXPECT_EQ(decl.entries()[2].role, ActionRole::kInput);
  EXPECT_EQ(s.classify(make_action("ACK", 0)), ActionRole::kInput);
}

}  // namespace
}  // namespace psc
