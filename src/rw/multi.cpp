#include "rw/multi.hpp"

#include <algorithm>

#include "runtime/executor.hpp"
#include "transform/clock_system.hpp"
#include "util/check.hpp"

namespace psc {

// ---------------------------------------------------------------------------
// MultiRwAlgorithm
// ---------------------------------------------------------------------------

MultiRwAlgorithm::MultiRwAlgorithm(const MultiRwParams& params)
    : Machine("MS_" + std::to_string(params.base.node)), params_(params) {
  PSC_CHECK(params_.num_objects >= 1, "num_objects");
  PSC_CHECK(params_.base.delta >= 1, "delta");
  PSC_CHECK(params_.base.c >= 0, "c");
  PSC_CHECK(params_.base.d2_prime >= params_.base.c + params_.base.two_eps,
            "c outside [0, d2' - 2eps]");
}

MultiRwAlgorithm::ObjectState& MultiRwAlgorithm::state_of(std::int64_t obj) {
  auto it = objects_.find(obj);
  if (it == objects_.end()) {
    it = objects_.emplace(obj, ObjectState{params_.base.v0, {}}).first;
  }
  return it->second;
}

const MultiRwAlgorithm::ObjectState* MultiRwAlgorithm::find_state(
    std::int64_t obj) const {
  auto it = objects_.find(obj);
  return it == objects_.end() ? nullptr : &it->second;
}

std::int64_t MultiRwAlgorithm::value(std::int64_t obj) const {
  const auto* s = find_state(obj);
  return s ? s->value : params_.base.v0;
}

void MultiRwAlgorithm::declare_signature(SignatureDecl& decl) const {
  const int i = params_.base.node;
  decl.input("READ", i);
  decl.input("WRITE", i);
  decl.input("RECVMSG", i);
  decl.output("RETURN", i);
  decl.output("ACK", i);
  decl.output("SENDMSG", i);
  decl.internal("UPDATE", i);
}

void MultiRwAlgorithm::apply_input(const Action& a, Time now) {
  const auto& p = params_.base;
  if (a.name == "READ") {
    PSC_CHECK(!read_.active, "alternation violated");
    read_.active = true;
    read_.obj = as_int(a.args.at(0));
    read_.time = now + p.c + p.two_eps + p.delta;
  } else if (a.name == "WRITE") {
    PSC_CHECK(write_.status == WriteStatus::kInactive, "alternation violated");
    write_.status = WriteStatus::kSend;
    write_.obj = as_int(a.args.at(0));
    write_.value = as_int(a.args.at(1));
    write_.send_time = now;
    write_.ack_time = now + p.d2_prime - p.c;
    write_.send_procs.clear();
    for (int j = 0; j < p.num_nodes; ++j) write_.send_procs.push_back(j);
  } else if (a.name == "RECVMSG") {
    PSC_CHECK(a.msg && a.msg->kind == "MUPDATE", "unexpected message");
    const std::int64_t obj = as_int(a.msg->fields.at(0));
    const std::int64_t v = as_int(a.msg->fields.at(1));
    const Time when = as_int(a.msg->fields.at(2)) + p.delta;
    auto& st = state_of(obj);
    auto it = std::find_if(
        st.updates.begin(), st.updates.end(),
        [when](const UpdateRecord& r) { return r.update_time == when; });
    if (it == st.updates.end()) {
      st.updates.push_back({a.peer, v, when});
    } else if (it->proc < a.peer) {
      *it = {a.peer, v, when};
    }
  } else {
    PSC_CHECK(false, "unexpected input " << to_string(a));
  }
}

bool MultiRwAlgorithm::update_due(std::int64_t obj, Time now) const {
  const auto* s = find_state(obj);
  if (!s) return false;
  return std::any_of(
      s->updates.begin(), s->updates.end(),
      [now](const UpdateRecord& r) { return r.update_time <= now; });
}

bool MultiRwAlgorithm::any_update_due(Time now) const {
  for (const auto& [obj, s] : objects_) {
    (void)s;
    if (update_due(obj, now)) return true;
  }
  return false;
}

std::vector<Action> MultiRwAlgorithm::enabled(Time now) const {
  std::vector<Action> out;
  const int i = params_.base.node;
  if (any_update_due(now)) {
    out.push_back(make_action("UPDATE", i));
  }
  // A read of object x waits only for x's due updates.
  if (read_.active && read_.time <= now && !update_due(read_.obj, now)) {
    out.push_back(make_action(
        "RETURN", i, {Value{read_.obj}, Value{value(read_.obj)}}));
  }
  if (write_.status == WriteStatus::kAck && write_.ack_time <= now) {
    out.push_back(make_action("ACK", i, {Value{write_.obj}}));
  }
  if (write_.status == WriteStatus::kSend && write_.send_time <= now) {
    for (int j : write_.send_procs) {
      Message m = make_message(
          "MUPDATE",
          {Value{write_.obj}, Value{write_.value},
           Value{write_.send_time + params_.base.d2_prime}});
      out.push_back(make_send(i, j, std::move(m)));
    }
  }
  return out;
}

void MultiRwAlgorithm::apply_local(const Action& a, Time now) {
  if (a.name == "UPDATE") {
    // Earliest due record across all objects; ties resolved object-wise
    // (records of different objects commute).
    ObjectState* best_state = nullptr;
    std::vector<UpdateRecord>::iterator best;
    for (auto& [obj, st] : objects_) {
      (void)obj;
      for (auto it = st.updates.begin(); it != st.updates.end(); ++it) {
        if (it->update_time > now) continue;
        if (!best_state || it->update_time < best->update_time) {
          best_state = &st;
          best = it;
        }
      }
    }
    PSC_CHECK(best_state != nullptr, "UPDATE with nothing due");
    best_state->value = best->value;
    best_state->updates.erase(best);
  } else if (a.name == "RETURN") {
    PSC_CHECK(read_.active && read_.time <= now, "RETURN not due");
    PSC_CHECK(as_int(a.args.at(0)) == read_.obj, "RETURN of wrong object");
    read_.active = false;
  } else if (a.name == "ACK") {
    PSC_CHECK(write_.status == WriteStatus::kAck && write_.ack_time <= now,
              "ACK not due");
    write_.status = WriteStatus::kInactive;
  } else if (a.name == "SENDMSG") {
    PSC_CHECK(write_.status == WriteStatus::kSend, "SENDMSG out of phase");
    auto it = std::find(write_.send_procs.begin(), write_.send_procs.end(),
                        a.peer);
    PSC_CHECK(it != write_.send_procs.end(), "duplicate SENDMSG");
    write_.send_procs.erase(it);
    if (write_.send_procs.empty()) write_.status = WriteStatus::kAck;
  } else {
    PSC_CHECK(false, "unexpected local action " << to_string(a));
  }
}

Time MultiRwAlgorithm::mintime() const {
  Time m = kTimeMax;
  if (read_.active) m = std::min(m, read_.time);
  if (write_.status == WriteStatus::kSend) m = std::min(m, write_.send_time);
  if (write_.status == WriteStatus::kAck) m = std::min(m, write_.ack_time);
  for (const auto& [obj, st] : objects_) {
    (void)obj;
    for (const auto& r : st.updates) m = std::min(m, r.update_time);
  }
  return m;
}

Time MultiRwAlgorithm::upper_bound(Time now) const {
  const Time m = mintime();
  return m <= now ? now : m;
}

Time MultiRwAlgorithm::next_enabled(Time now) const {
  Time ne = kTimeMax;
  auto consider = [&](Time t) {
    if (t > now) ne = std::min(ne, t);
  };
  if (read_.active) consider(read_.time);
  if (write_.status == WriteStatus::kSend) consider(write_.send_time);
  if (write_.status == WriteStatus::kAck) consider(write_.ack_time);
  for (const auto& [obj, st] : objects_) {
    (void)obj;
    for (const auto& r : st.updates) consider(r.update_time);
  }
  return ne;
}

std::vector<std::unique_ptr<Machine>> make_multi_rw_algorithms(
    int num_nodes, const MultiRwParams& base) {
  std::vector<std::unique_ptr<Machine>> out;
  for (int i = 0; i < num_nodes; ++i) {
    MultiRwParams p = base;
    p.base.node = i;
    p.base.num_nodes = num_nodes;
    out.push_back(std::make_unique<MultiRwAlgorithm>(p));
  }
  return out;
}

// ---------------------------------------------------------------------------
// MultiRwClient
// ---------------------------------------------------------------------------

MultiRwClient::MultiRwClient(const Options& options)
    : Machine("mclient_" + std::to_string(options.node)),
      options_(options),
      rng_(options.seed) {
  PSC_CHECK(options_.num_objects >= 1, "num_objects");
  PSC_CHECK(options_.think_min <= options_.think_max, "think range");
}

void MultiRwClient::declare_signature(SignatureDecl& decl) const {
  decl.input("RETURN", options_.node);
  decl.input("ACK", options_.node);
  decl.output("READ", options_.node);
  decl.output("WRITE", options_.node);
}

void MultiRwClient::apply_input(const Action& a, Time t) {
  PSC_CHECK(busy_, "response with no outstanding invocation");
  PSC_CHECK(as_int(a.args.at(0)) == current_.obj, "response for wrong object");
  if (a.name == "RETURN") {
    PSC_CHECK(current_.kind == Operation::Kind::kRead, "RETURN for WRITE");
    current_.value = as_int(a.args.at(1));
  } else {
    PSC_CHECK(current_.kind == Operation::Kind::kWrite, "ACK for READ");
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

std::vector<Action> MultiRwClient::enabled(Time t) const {
  std::vector<Action> out;
  if (!busy_ && issued_ < options_.num_ops && next_issue_ <= t) {
    Rng probe(options_.seed ^ (0x9e3779b9ULL * (issued_ + 1)));
    const bool write = probe.uniform01() < options_.write_fraction;
    const auto obj = static_cast<std::int64_t>(
        probe.index(static_cast<std::size_t>(options_.num_objects)));
    if (write) {
      const std::int64_t v =
          (static_cast<std::int64_t>(options_.node) << 32) | (issued_ + 1);
      out.push_back(
          make_action("WRITE", options_.node, {Value{obj}, Value{v}}));
    } else {
      out.push_back(make_action("READ", options_.node, {Value{obj}}));
    }
  }
  return out;
}

void MultiRwClient::apply_local(const Action& a, Time t) {
  PSC_CHECK(!busy_ && issued_ < options_.num_ops, "invocation out of turn");
  current_ = Operation{};
  current_.proc = options_.node;
  current_.inv = t;
  current_.obj = as_int(a.args.at(0));
  if (a.name == "WRITE") {
    current_.kind = Operation::Kind::kWrite;
    current_.value = as_int(a.args.at(1));
  } else {
    current_.kind = Operation::Kind::kRead;
  }
  ++issued_;
  busy_ = true;
}

Time MultiRwClient::upper_bound(Time t) const {
  if (busy_ || issued_ >= options_.num_ops) return kTimeMax;
  return next_issue_ <= t ? t : next_issue_;
}

Time MultiRwClient::next_enabled(Time t) const {
  if (busy_ || issued_ >= options_.num_ops) return kTimeMax;
  return next_issue_ > t ? next_issue_ : kTimeMax;
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

MultiRunResult run_multi_rw_clock(const RwRunConfig& cfg,
                                  const DriftModel& drift, int num_objects) {
  Executor exec({.horizon = cfg.horizon, .seed = cfg.seed, .legacy_scan = cfg.legacy_scan, .validate = cfg.validate});
  std::vector<MultiRwClient*> clients;
  Rng cl_seeder(cfg.seed ^ 0xc7);
  for (int i = 0; i < cfg.num_nodes; ++i) {
    MultiRwClient::Options o;
    o.node = i;
    o.num_objects = num_objects;
    o.num_ops = cfg.ops_per_node;
    o.write_fraction = cfg.write_fraction;
    o.think_min = cfg.think_min;
    o.think_max = cfg.think_max;
    o.seed = cl_seeder.next();
    auto c = std::make_unique<MultiRwClient>(o);
    clients.push_back(c.get());
    exec.add_owned(std::move(c));
  }
  MultiRwParams mp;
  mp.base.c = cfg.c;
  mp.base.delta = cfg.delta;
  mp.base.d2_prime = timed_d2(cfg.d2, cfg.eps);
  mp.base.two_eps = cfg.super ? 2 * cfg.eps : 0;
  mp.base.v0 = cfg.v0;
  mp.num_objects = num_objects;
  const Graph g = Graph::complete_with_self_loops(cfg.num_nodes);
  std::vector<std::shared_ptr<const ClockTrajectory>> trajs;
  Rng tr_seeder(cfg.seed ^ 0xc1c1c1c1ULL);
  for (int i = 0; i < cfg.num_nodes; ++i) {
    Rng r = tr_seeder.split();
    trajs.push_back(std::make_shared<ClockTrajectory>(
        drift.generate(cfg.eps, cfg.horizon, r)));
  }
  ChannelConfig cc;
  cc.d1 = cfg.d1;
  cc.d2 = cfg.d2;
  cc.seed = cfg.seed ^ 0xe5e5;
  add_clock_system(exec, g, cc,
                   make_multi_rw_algorithms(cfg.num_nodes, mp), trajs);
  exec.run();
  MultiRunResult result;
  for (const auto* c : clients) {
    const auto& ops = c->operations();
    result.ops.insert(result.ops.end(), ops.begin(), ops.end());
  }
  result.events = exec.events();
  return result;
}

}  // namespace psc
