#include "algos/flood.hpp"

#include <algorithm>

#include "runtime/system.hpp"
#include "util/check.hpp"

namespace psc {

FloodNode::FloodNode(const FloodParams& params)
    : Machine("flood_" + std::to_string(params.node)), params_(params) {
  PSC_CHECK(params_.hops_bound >= 0, "hops_bound");
  PSC_CHECK(params_.d2_design >= 0, "d2_design");
  PSC_CHECK(params_.waves >= 1, "waves");
  PSC_CHECK(params_.wave_gap >= 0, "wave_gap");
}

Time FloodNode::wave_start(int w) const {
  return static_cast<Time>(w) * params_.wave_gap;
}

Time FloodNode::complete_at() const {
  return wave_start(params_.waves - 1) +
         static_cast<Time>(params_.hops_bound) * params_.d2_design +
         params_.margin;
}

bool FloodNode::seen(std::int64_t payload) const {
  return std::find(seen_.begin(), seen_.end(), payload) != seen_.end();
}

std::vector<std::int64_t> FloodNode::due_waves(Time now) const {
  std::vector<std::int64_t> out;
  if (!params_.source) return out;
  for (int w = 0; w < params_.waves && wave_start(w) <= now; ++w) {
    const std::int64_t p = params_.payload + w;
    if (!seen(p)) out.push_back(p);
  }
  return out;
}

void FloodNode::declare_signature(SignatureDecl& decl) const {
  const int i = params_.node;
  decl.input("RECVMSG", i);
  decl.output("SENDMSG", i);
  decl.output("DELIVER", i);
  if (params_.source) decl.output("COMPLETE", i);
}

void FloodNode::apply_input(const Action& a, Time /*now*/) {
  PSC_CHECK(a.msg && a.msg->kind == "FLOOD", "unexpected message");
  const std::int64_t p = as_int(a.msg->fields.at(0));
  if (seen(p)) return;  // duplicates are ignored (relay-once per payload)
  seen_.push_back(p);
  to_deliver_.push_back(p);
}

void FloodNode::enabled_into(Time now, Candidates& out) const {
  // The message kind fits in std::string's inline buffer and the args /
  // payload vectors are refilled in place, so a node's steady-state re-poll
  // allocates nothing. SENDMSG slots are offered unnamed (uid 0): a
  // recycled slot may hold the last event's named action.
  out.clear();
  const int i = params_.node;
  const auto put_deliver = [&](std::int64_t p) {
    Action& a = out.slot(names::kDeliver, i);
    a.args.emplace_back(p);
    a.msg.reset();
  };
  for (const std::int64_t p : to_deliver_) put_deliver(p);
  for (const std::int64_t p : due_waves(now)) put_deliver(p);
  for (const Relay& r : relays_) {
    for (int j : r.targets) {
      Action& a = out.slot(names::kSendMsg, i, j);
      Message& m = a.msg ? *a.msg : a.msg.emplace();
      m.kind.assign("FLOOD");
      m.fields.clear();
      m.fields.emplace_back(r.payload);
      m.uid = 0;
      m.clock_tag = kNoClockTag;
    }
  }
  if (params_.source && !announced_ && now >= complete_at()) {
    out.slot(names::kComplete, i).msg.reset();
  }
}

void FloodNode::apply_local(const Action& a, Time now) {
  if (a.name == names::kDeliver) {
    const std::int64_t p = as_int(a.args.at(0));
    const auto it = std::find(to_deliver_.begin(), to_deliver_.end(), p);
    if (it != to_deliver_.end()) {
      to_deliver_.erase(it);
    } else {
      // Source origination: the wave's payload is taken up here.
      const auto due = due_waves(now);
      PSC_CHECK(std::find(due.begin(), due.end(), p) != due.end(),
                "DELIVER out of turn");
      seen_.push_back(p);
    }
    ++delivered_;
    relays_.push_back({p, params_.peers});
  } else if (a.name == names::kSendMsg) {
    PSC_CHECK(a.msg.has_value(), "SENDMSG without message");
    const std::int64_t p = as_int(a.msg->fields.at(0));
    const auto rit =
        std::find_if(relays_.begin(), relays_.end(),
                     [p](const Relay& r) { return r.payload == p; });
    PSC_CHECK(rit != relays_.end(), "relay of unknown payload");
    const auto tit = std::find(rit->targets.begin(), rit->targets.end(), a.peer);
    PSC_CHECK(tit != rit->targets.end(), "duplicate relay");
    rit->targets.erase(tit);
    if (rit->targets.empty()) relays_.erase(rit);
  } else if (a.name == names::kComplete) {
    PSC_CHECK(params_.source && !announced_ && now >= complete_at(),
              "COMPLETE out of turn");
    announced_ = true;
  } else {
    PSC_CHECK(false, "unexpected action " << to_string(a));
  }
}

Time FloodNode::upper_bound(Time now) const {
  Time m = kTimeMax;
  if (!to_deliver_.empty() || !relays_.empty() || !due_waves(now).empty()) {
    m = now;  // deliver/relay urgently
  }
  if (params_.source) {
    // Future wave originations are urgent at their start times.
    for (int w = 0; w < params_.waves; ++w) {
      if (wave_start(w) > now && !seen(params_.payload + w)) {
        m = std::min(m, wave_start(w));
        break;
      }
    }
    if (!announced_) m = std::min(m, complete_at());
  }
  return m <= now ? now : m;
}

Time FloodNode::next_enabled(Time now) const {
  Time m = kTimeMax;
  if (params_.source) {
    for (int w = 0; w < params_.waves; ++w) {
      if (wave_start(w) > now && !seen(params_.payload + w)) {
        m = std::min(m, wave_start(w));
        break;
      }
    }
    if (!announced_ && complete_at() > now) m = std::min(m, complete_at());
  }
  return m;
}

std::vector<std::unique_ptr<Machine>> make_flood_nodes(
    const Graph& graph, int source, std::int64_t payload, int hops_bound,
    Duration d2_design, Duration margin, int waves, Duration wave_gap) {
  std::vector<std::unique_ptr<Machine>> out;
  std::vector<std::vector<int>> adjacency = graph.out_adjacency();
  for (int i = 0; i < graph.n; ++i) {
    FloodParams p;
    p.node = i;
    p.source = i == source;
    p.peers = std::move(adjacency[static_cast<std::size_t>(i)]);
    p.payload = payload;
    p.hops_bound = hops_bound;
    p.d2_design = d2_design;
    p.margin = margin;
    p.waves = waves;
    p.wave_gap = wave_gap;
    out.push_back(std::make_unique<FloodNode>(p));
  }
  return out;
}

bool flood_safe(const TimedTrace& trace, int n, int waves) {
  Time last_deliver = -1;
  Time first_complete = kTimeMax;
  int delivers = 0;
  for (const auto& e : trace) {
    if (e.action.name == names::kDeliver) {
      ++delivers;
      last_deliver = std::max(last_deliver, e.time);
    } else if (e.action.name == names::kComplete) {
      first_complete = std::min(first_complete, e.time);
    }
  }
  return delivers == n * waves && last_deliver <= first_complete &&
         first_complete < kTimeMax;
}

}  // namespace psc
