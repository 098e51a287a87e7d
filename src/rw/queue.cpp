#include "rw/queue.hpp"

#include <sstream>

#include "algos/tobcast.hpp"
#include "obs/instrument.hpp"
#include "runtime/composite.hpp"
#include "runtime/executor.hpp"
#include "runtime/system.hpp"
#include "rw/wing_gong.hpp"
#include "transform/clock_system.hpp"
#include "util/check.hpp"

namespace psc {

namespace {

// Operation encoding inside the broadcast payload: enqueues carry
// (value << 1) | 1, dequeues are 0. Client values are nonnegative, so the
// encoding is unambiguous.
constexpr std::int64_t kDeqPayload = 0;
std::int64_t encode_enq(std::int64_t v) { return (v << 1) | 1; }
bool is_enq(std::int64_t payload) { return (payload & 1) != 0; }
std::int64_t enq_value(std::int64_t payload) { return payload >> 1; }

}  // namespace

// ---------------------------------------------------------------------------
// QueueServer
// ---------------------------------------------------------------------------

QueueServer::QueueServer(int node, int num_nodes)
    : Machine("queue_" + std::to_string(node)),
      node_(node),
      num_nodes_(num_nodes) {}

void QueueServer::declare_signature(SignatureDecl& decl) const {
  decl.input("ENQ", node_);
  decl.input("DEQ", node_);
  decl.input("TODELIVER", node_);
  decl.output("ENQACK", node_);
  decl.output("DEQRET", node_);
  decl.output("TOBCAST", node_);
}

void QueueServer::apply_input(const Action& a, Time /*now*/) {
  if (a.name == "ENQ") {
    PSC_CHECK(outstanding_ == OpKind::kNone, "alternation violated");
    PSC_CHECK(as_int(a.args.at(0)) >= 0, "queue values must be nonnegative");
    outstanding_ = OpKind::kEnq;
    pending_bcast_ = encode_enq(as_int(a.args.at(0)));
    bcast_ready_ = true;
  } else if (a.name == "DEQ") {
    PSC_CHECK(outstanding_ == OpKind::kNone, "alternation violated");
    outstanding_ = OpKind::kDeq;
    pending_bcast_ = kDeqPayload;
    bcast_ready_ = true;
  } else {  // TODELIVER(payload, sender)
    const std::int64_t payload = as_int(a.args.at(0));
    const int sender = static_cast<int>(as_int(a.args.at(1)));
    std::int64_t deq_result = -1;
    if (is_enq(payload)) {
      queue_.push_back(enq_value(payload));
    } else {
      if (!queue_.empty()) {
        deq_result = queue_.front();
        queue_.pop_front();
      }
    }
    if (sender == node_) {
      PSC_CHECK(outstanding_ != OpKind::kNone,
                "own delivery with no outstanding op");
      PSC_CHECK(is_enq(payload) == (outstanding_ == OpKind::kEnq),
                "delivery kind mismatch");
      response_ready_ = true;
      response_value_ = deq_result;
    }
  }
}

void QueueServer::enabled_into(Time /*now*/, Candidates& out) const {
  out.clear();
  if (bcast_ready_) {
    out.push_back(make_action("TOBCAST", node_, {Value{pending_bcast_}}));
  }
  if (response_ready_) {
    if (outstanding_ == OpKind::kEnq) {
      out.push_back(make_action("ENQACK", node_));
    } else {
      out.push_back(make_action("DEQRET", node_, {Value{response_value_}}));
    }
  }
}

void QueueServer::apply_local(const Action& a, Time /*now*/) {
  if (a.name == "TOBCAST") {
    PSC_CHECK(bcast_ready_, "broadcast out of turn");
    bcast_ready_ = false;
  } else if (a.name == "ENQACK" || a.name == "DEQRET") {
    PSC_CHECK(response_ready_, "response out of turn");
    response_ready_ = false;
    outstanding_ = OpKind::kNone;
  } else {
    PSC_CHECK(false, "unexpected action " << to_string(a));
  }
}

Time QueueServer::upper_bound(Time now) const {
  return (bcast_ready_ || response_ready_) ? now : kTimeMax;
}

std::vector<std::unique_ptr<Machine>> make_queue_nodes(int num_nodes,
                                                       Duration d2_prime,
                                                       Duration delta) {
  std::vector<std::unique_ptr<Machine>> out;
  for (int i = 0; i < num_nodes; ++i) {
    auto composite =
        std::make_unique<CompositeMachine>("qnode_" + std::to_string(i));
    composite->add(std::make_unique<QueueServer>(i, num_nodes));
    TobcastParams tp;
    tp.node = i;
    tp.num_nodes = num_nodes;
    tp.d2_prime = d2_prime;
    tp.delta = delta;
    composite->add(std::make_unique<TobcastNode>(tp));
    composite->hide("TOBCAST");
    composite->hide("TODELIVER");
    out.push_back(std::move(composite));
  }
  return out;
}

// ---------------------------------------------------------------------------
// QueueClient
// ---------------------------------------------------------------------------

QueueClient::QueueClient(const Options& options)
    : Machine("qclient_" + std::to_string(options.node)),
      options_(options),
      rng_(options.seed) {
  PSC_CHECK(options_.think_min <= options_.think_max, "think range");
}

void QueueClient::declare_signature(SignatureDecl& decl) const {
  decl.input("ENQACK", options_.node);
  decl.input("DEQRET", options_.node);
  decl.output("ENQ", options_.node);
  decl.output("DEQ", options_.node);
}

void QueueClient::apply_input(const Action& a, Time t) {
  PSC_CHECK(busy_, "response without invocation");
  if (a.name == "DEQRET") {
    PSC_CHECK(current_.kind == QueueOp::Kind::kDeq, "DEQRET for ENQ");
    current_.value = as_int(a.args.at(0));
  } else {
    PSC_CHECK(current_.kind == QueueOp::Kind::kEnq, "ENQACK for DEQ");
  }
  current_.res = t;
  ops_.push_back(current_);
  busy_ = false;
  const Duration think =
      options_.think_min == options_.think_max
          ? options_.think_min
          : rng_.uniform(options_.think_min, options_.think_max);
  next_issue_ = t + think;
}

void QueueClient::enabled_into(Time t, Candidates& out) const {
  out.clear();
  if (!busy_ && issued_ < options_.num_ops && next_issue_ <= t) {
    Rng probe(options_.seed ^ (0x2545f49ULL * (issued_ + 1)));
    if (probe.uniform01() < options_.enq_fraction) {
      const std::int64_t v =
          (static_cast<std::int64_t>(options_.node) << 24) | (issued_ + 1);
      out.push_back(make_action("ENQ", options_.node, {Value{v}}));
    } else {
      out.push_back(make_action("DEQ", options_.node));
    }
  }
}

void QueueClient::apply_local(const Action& a, Time t) {
  PSC_CHECK(!busy_ && issued_ < options_.num_ops, "invocation out of turn");
  current_ = QueueOp{};
  current_.proc = options_.node;
  current_.inv = t;
  if (a.name == "ENQ") {
    current_.kind = QueueOp::Kind::kEnq;
    current_.value = as_int(a.args.at(0));
  } else {
    current_.kind = QueueOp::Kind::kDeq;
  }
  ++issued_;
  busy_ = true;
}

Time QueueClient::upper_bound(Time t) const {
  if (busy_ || issued_ >= options_.num_ops) return kTimeMax;
  return next_issue_ <= t ? t : next_issue_;
}

Time QueueClient::next_enabled(Time t) const {
  if (busy_ || issued_ >= options_.num_ops) return kTimeMax;
  return next_issue_ > t ? next_issue_ : kTimeMax;
}

// ---------------------------------------------------------------------------
// Checker: Wing-Gong with FIFO semantics
// ---------------------------------------------------------------------------

std::string to_string(const QueueOp& op) {
  std::ostringstream os;
  os << (op.kind == QueueOp::Kind::kEnq ? "E" : "D") << op.proc << "("
     << op.value << ")[" << format_time(op.inv) << "," << format_time(op.res)
     << "]";
  return os.str();
}

namespace {

// The FIFO queue as a Wing-Gong object (rw/wing_gong.hpp). A dequeue must
// return the current front, or -1 when the queue is empty.
struct Fifo {
  using Op = QueueOp;
  std::deque<std::int64_t> q;

  bool step(const QueueOp& op, std::int64_t& popped) {
    if (op.kind == QueueOp::Kind::kEnq) {
      q.push_back(op.value);
      return true;
    }
    popped = 0;
    if (q.empty()) return op.value == -1;
    if (op.value != q.front()) return false;
    q.pop_front();
    popped = 1;
    return true;
  }
  void undo(const QueueOp& op, std::int64_t popped) {
    if (op.kind == QueueOp::Kind::kEnq) {
      q.pop_back();
    } else if (popped != 0) {
      q.push_front(op.value);
    }
  }
  void append_key(std::string& key) const {
    for (const auto v : q) {
      key.append(reinterpret_cast<const char*>(&v), sizeof(v));
    }
  }
};

}  // namespace

QueueCheckResult check_linearizable_queue(const std::vector<QueueOp>& ops,
                                          std::size_t max_states) {
  return wing_gong(ops, Fifo{}, max_states);
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

namespace {

std::vector<QueueClient*> add_queue_clients(Executor& exec,
                                            const QueueRunConfig& cfg) {
  std::vector<QueueClient*> handles;
  Rng seeder(cfg.seed ^ 0x9c);
  for (int i = 0; i < cfg.num_nodes; ++i) {
    QueueClient::Options o;
    o.node = i;
    o.num_ops = cfg.ops_per_node;
    o.enq_fraction = cfg.enq_fraction;
    o.think_min = cfg.think_min;
    o.think_max = cfg.think_max;
    o.seed = seeder.next();
    auto c = std::make_unique<QueueClient>(o);
    handles.push_back(c.get());
    exec.add_owned(std::move(c));
  }
  return handles;
}

QueueRunResult collect(Executor& exec,
                       const std::vector<QueueClient*>& clients) {
  QueueRunResult result;
  result.report = exec.run();
  for (const auto* c : clients) {
    const auto& ops = c->operations();
    result.ops.insert(result.ops.end(), ops.begin(), ops.end());
  }
  result.events = exec.events();
  return result;
}

}  // namespace

QueueRunResult run_queue_timed(const QueueRunConfig& cfg) {
  Executor exec({.horizon = cfg.horizon, .seed = cfg.seed, .validate = cfg.validate});
  auto clients = add_queue_clients(exec, cfg);
  ChannelConfig cc;
  cc.d1 = cfg.d1;
  cc.d2 = cfg.d2;
  cc.seed = cfg.seed ^ 0x99;
  add_timed_system(exec, Graph::complete_with_self_loops(cfg.num_nodes), cc,
                   make_queue_nodes(cfg.num_nodes, cfg.d2, cfg.delta));
  RunObserver observer(cfg.obs);
  observer.add_channel_latency(cfg.d1, cfg.d2);
  observer.attach(exec);
  return collect(exec, clients);
}

QueueAssembly assemble_queue_clock(const QueueRunConfig& cfg,
                                   const DriftModel& drift) {
  QueueAssembly a;
  a.exec = std::make_unique<Executor>(ExecutorOptions{
      .horizon = cfg.horizon, .seed = cfg.seed, .validate = cfg.validate});
  a.clients = add_queue_clients(*a.exec, cfg);
  Rng seeder(cfg.seed ^ 0xc1c1c1c1ULL);
  for (int i = 0; i < cfg.num_nodes; ++i) {
    Rng r = seeder.split();
    auto traj = std::make_shared<ClockTrajectory>(
        drift.generate(cfg.eps, cfg.horizon, r));
    traj->validate(cfg.horizon);
    a.trajectories.push_back(std::move(traj));
  }
  ChannelConfig cc;
  cc.d1 = cfg.d1;
  cc.d2 = cfg.d2;
  cc.seed = cfg.seed ^ 0x55;
  a.nodes = add_clock_system(
                *a.exec, Graph::complete_with_self_loops(cfg.num_nodes), cc,
                make_queue_nodes(cfg.num_nodes, timed_d2(cfg.d2, cfg.eps),
                                 cfg.delta),
                a.trajectories)
                .nodes;
  return a;
}

QueueRunResult run_queue_clock(const QueueRunConfig& cfg,
                               const DriftModel& drift) {
  QueueAssembly a = assemble_queue_clock(cfg, drift);
  RunObserver observer(cfg.obs);
  observer.add_clock_skew(a.trajectories, cfg.eps);
  observer.add_channel_latency(cfg.d1, cfg.d2);
  Sim1BufferProbe* bp = observer.add_buffers();
  CausalTraceProbe* cp = cfg.obs != nullptr ? cfg.obs->causal : nullptr;
  if (bp != nullptr || cp != nullptr) {
    for (auto* node : a.nodes) {
      auto& comp = dynamic_cast<CompositeMachine&>(node->inner());
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
  }
  observer.attach(*a.exec);
  return collect(*a.exec, a.clients);
}

}  // namespace psc
