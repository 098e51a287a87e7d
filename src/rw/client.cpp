#include "rw/client.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

RwClient::RwClient(const ClientOptions& options)
    : Machine("client_" + std::to_string(options.node)),
      options_(options),
      rng_(options.seed),
      next_issue_(options.start_at) {
  PSC_CHECK(options_.num_ops >= 0, "num_ops");
  PSC_CHECK(options_.think_min <= options_.think_max, "think range");
  PSC_CHECK(options_.write_fraction >= 0 && options_.write_fraction <= 1,
            "write_fraction");
}

std::int64_t RwClient::fresh_value() const {
  return (static_cast<std::int64_t>(options_.node) << 32) | (issued_ + 1);
}

void RwClient::declare_signature(SignatureDecl& decl) const {
  decl.input("RETURN", options_.node);
  decl.input("ACK", options_.node);
  decl.output("READ", options_.node);
  decl.output("WRITE", options_.node);
}

void RwClient::apply_input(const Action& a, Time t) {
  PSC_CHECK(busy_, "response with no outstanding invocation at node "
                       << options_.node);
  if (a.name == names::kReturn) {
    PSC_CHECK(current_.kind == Operation::Kind::kRead, "RETURN for a WRITE");
    current_.value = as_int(a.args.at(0));
  } else {
    PSC_CHECK(current_.kind == Operation::Kind::kWrite, "ACK for a READ");
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

void RwClient::enabled_into(Time t, Candidates& out) const {
  out.clear();
  if (!busy_ && issued_ < options_.num_ops && next_issue_ <= t) {
    // The choice read-vs-write must be stable across repeated enabled()
    // calls, so derive it from the op sequence number, not a fresh draw.
    Rng probe(options_.seed ^ (0x5bd1e995ULL * (issued_ + 1)));
    const bool write = probe.uniform01() < options_.write_fraction;
    Action& a = out.slot(write ? names::kWrite : names::kRead, options_.node);
    if (write) {
      a.args.emplace_back(fresh_value());
    }
    a.msg.reset();
  }
}

void RwClient::apply_local(const Action& a, Time t) {
  PSC_CHECK(!busy_ && issued_ < options_.num_ops, "invocation out of turn");
  current_ = Operation{};
  current_.proc = options_.node;
  current_.inv = t;
  if (a.name == names::kWrite) {
    current_.kind = Operation::Kind::kWrite;
    current_.value = as_int(a.args.at(0));
  } else {
    current_.kind = Operation::Kind::kRead;
  }
  ++issued_;
  busy_ = true;
}

Time RwClient::upper_bound(Time t) const {
  if (busy_ || issued_ >= options_.num_ops) return kTimeMax;
  return next_issue_ <= t ? t : next_issue_;
}

Time RwClient::next_enabled(Time t) const {
  if (busy_ || issued_ >= options_.num_ops) return kTimeMax;
  return next_issue_ > t ? next_issue_ : kTimeMax;
}

std::vector<std::unique_ptr<Machine>> make_clients(
    int num_nodes, const ClientOptions& base, std::uint64_t seed,
    std::vector<RwClient*>* handles) {
  std::vector<std::unique_ptr<Machine>> out;
  Rng seeder(seed);
  for (int i = 0; i < num_nodes; ++i) {
    ClientOptions o = base;
    o.node = i;
    o.seed = seeder.next();
    auto c = std::make_unique<RwClient>(o);
    if (handles) handles->push_back(c.get());
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<Operation> collect_operations(
    const std::vector<RwClient*>& clients) {
  std::vector<Operation> all;
  for (const auto* c : clients) {
    const auto& ops = c->operations();
    all.insert(all.end(), ops.begin(), ops.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Operation& a, const Operation& b) {
              if (a.inv != b.inv) return a.inv < b.inv;
              return a.proc < b.proc;
            });
  return all;
}

}  // namespace psc
