#include "algos/tobcast.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

namespace {
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
}

TobcastNode::TobcastNode(const TobcastParams& params)
    : Machine("tob_" + std::to_string(params.node)), params_(params) {
  PSC_CHECK(params_.delta >= 1, "delta");
  PSC_CHECK(params_.d2_prime >= 0, "d2_prime");
}

void TobcastNode::declare_signature(SignatureDecl& decl) const {
  const int i = params_.node;
  decl.input("TOBCAST", i);
  for (int j = 0; j < params_.num_nodes; ++j) decl.input("RECVMSG", i, j);
  decl.output("SENDMSG", i);
  decl.output("TODELIVER", i);
}

void TobcastNode::apply_input(const Action& a, Time now) {
  if (a.name == "TOBCAST") {
    Outgoing o;
    o.value = as_int(a.args.at(0));
    o.ts = now;
    o.seq = next_seq_++;
    for (int j = 0; j < params_.num_nodes; ++j) o.targets.push_back(j);
    outgoing_.push_back(std::move(o));
  } else {
    PSC_CHECK(a.msg && a.msg->kind == "TOMSG", "unexpected message");
    Pending p;
    p.value = as_int(a.msg->fields.at(0));
    p.ts = as_int(a.msg->fields.at(1));
    p.sender = a.peer;
    p.seq = as_int(a.msg->fields.at(2));
    p.deliver_at = p.ts + params_.d2_prime + params_.delta;
    pending_.push_back(p);
  }
}

std::size_t TobcastNode::next_due(Time now) const {
  std::size_t best = kNone;
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    if (pending_[k].deliver_at > now) continue;
    if (best == kNone) {
      best = k;
      continue;
    }
    const auto& b = pending_[best];
    const auto& c = pending_[k];
    if (std::tie(c.ts, c.sender, c.seq) < std::tie(b.ts, b.sender, b.seq)) {
      best = k;
    }
  }
  return best;
}

void TobcastNode::enabled_into(Time now, Candidates& out) const {
  out.clear();
  const int i = params_.node;
  for (const auto& o : outgoing_) {
    for (int j : o.targets) {
      out.push_back(make_send(
          i, j,
          make_message("TOMSG", {Value{o.value}, Value{o.ts}, Value{o.seq}})));
    }
  }
  const std::size_t due = next_due(now);
  if (due != kNone) {
    const auto& p = pending_[due];
    out.push_back(make_action(
        "TODELIVER", i,
        {Value{p.value}, Value{static_cast<std::int64_t>(p.sender)}}));
  }
}

void TobcastNode::apply_local(const Action& a, Time now) {
  if (a.name == names::kSendMsg) {
    const Time ts = as_int(a.msg->fields.at(1));
    const std::int64_t seq = as_int(a.msg->fields.at(2));
    auto it = std::find_if(outgoing_.begin(), outgoing_.end(),
                           [&](const Outgoing& o) {
                             return o.ts == ts && o.seq == seq;
                           });
    PSC_CHECK(it != outgoing_.end(), "send for unknown broadcast");
    auto t = std::find(it->targets.begin(), it->targets.end(), a.peer);
    PSC_CHECK(t != it->targets.end(), "duplicate send");
    it->targets.erase(t);
    if (it->targets.empty()) outgoing_.erase(it);
  } else if (a.name == "TODELIVER") {
    const std::size_t due = next_due(now);
    PSC_CHECK(due != kNone, "TODELIVER with nothing due");
    PSC_CHECK(as_int(a.args.at(0)) == pending_[due].value,
              "TODELIVER out of order");
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(due));
    ++delivered_;
  } else {
    PSC_CHECK(false, "unexpected action " << to_string(a));
  }
}

Time TobcastNode::upper_bound(Time now) const {
  Time m = kTimeMax;
  if (!outgoing_.empty()) m = now;  // sends are urgent
  for (const auto& p : pending_) m = std::min(m, p.deliver_at);
  return m <= now ? now : m;
}

Time TobcastNode::next_enabled(Time now) const {
  Time ne = kTimeMax;
  for (const auto& p : pending_) {
    if (p.deliver_at > now) ne = std::min(ne, p.deliver_at);
  }
  return ne;
}

std::vector<std::unique_ptr<Machine>> make_tobcast_nodes(
    int num_nodes, const TobcastParams& base) {
  std::vector<std::unique_ptr<Machine>> out;
  for (int i = 0; i < num_nodes; ++i) {
    TobcastParams p = base;
    p.node = i;
    p.num_nodes = num_nodes;
    out.push_back(std::make_unique<TobcastNode>(p));
  }
  return out;
}

std::vector<std::vector<std::pair<std::int64_t, int>>> delivery_sequences(
    const TimedTrace& trace, int num_nodes) {
  std::vector<std::vector<std::pair<std::int64_t, int>>> seq(
      static_cast<std::size_t>(num_nodes));
  for (const auto& e : trace) {
    if (e.action.name != "TODELIVER") continue;
    const int node = e.action.node;
    if (node < 0 || node >= num_nodes) continue;
    seq[static_cast<std::size_t>(node)].emplace_back(
        as_int(e.action.args.at(0)),
        static_cast<int>(as_int(e.action.args.at(1))));
  }
  return seq;
}

bool deliveries_agree(const TimedTrace& trace, int num_nodes) {
  const auto seqs = delivery_sequences(trace, num_nodes);
  std::size_t longest = 0;
  for (std::size_t k = 1; k < seqs.size(); ++k) {
    if (seqs[k].size() > seqs[longest].size()) longest = k;
  }
  for (const auto& s : seqs) {
    for (std::size_t k = 0; k < s.size(); ++k) {
      if (s[k] != seqs[longest][k]) return false;
    }
  }
  return true;
}

}  // namespace psc
