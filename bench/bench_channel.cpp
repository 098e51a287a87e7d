// F1 — the edge automaton E_{ij,[d1,d2]} (Figure 1).
//
// Verifies, per delay policy: every delivery inside [send+d1, send+d2]; no
// loss or duplication; and quantifies reordering as a function of the
// window width vs send spacing — reordering appears exactly when
// (d2 - d1) exceeds the spacing, which is the nondeterminism Figure 1
// grants the channel.
#include <algorithm>
#include <map>

#include "channel/channel.hpp"
#include "common.hpp"
#include "runtime/executor.hpp"
#include "runtime/script.hpp"

using namespace psc;

namespace {

struct ChannelOutcome {
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t reordered = 0;
  bool window_ok = true;
  bool exactly_once = true;
};

ChannelOutcome drive(const char* policy_name, Duration d1, Duration d2,
                     Duration spacing, int count, std::uint64_t seed) {
  auto policy = [&]() -> std::unique_ptr<DelayPolicy> {
    const std::string p = policy_name;
    if (p == "uniform") return DelayPolicy::uniform();
    if (p == "min") return DelayPolicy::always_min();
    if (p == "max") return DelayPolicy::always_max();
    return DelayPolicy::bimodal(0.5);
  }();
  Executor exec({.horizon = seconds(60), .seed = seed});
  std::vector<ScriptMachine::Step> steps;
  std::map<std::uint64_t, Time> sent_at;
  for (int k = 0; k < count; ++k) {
    // An explicit uid: the script's send keeps it, so each delivery can be
    // matched to its send.
    Message m = make_message("M");
    m.uid = static_cast<std::uint64_t>(k) + 1;
    sent_at[m.uid] = k * spacing;
    steps.push_back({k * spacing, make_send(0, 1, std::move(m))});
  }
  exec.add_owned(std::make_unique<ScriptMachine>("env", std::move(steps)));
  auto ch = std::make_unique<Channel>(0, 1, d1, d2, std::move(policy),
                                      Rng(seed));
  Channel* chp = ch.get();
  exec.add_owned(std::move(ch));
  bench::warn_event_cap(exec.run().hit_event_cap, std::string("channel drive ") + policy_name);

  ChannelOutcome out;
  out.sent = chp->stats().sent;
  out.delivered = chp->stats().delivered;
  out.reordered = chp->stats().reordered;
  std::map<std::uint64_t, int> seen;
  for (const auto& e : project_name(exec.events(), "RECVMSG")) {
    const auto uid = e.action.msg->uid;
    ++seen[uid];
    const Time s = sent_at.at(uid);
    if (e.time < s + d1 || e.time > s + d2) out.window_ok = false;
  }
  for (const auto& [uid, t] : sent_at) {
    if (seen[uid] != 1) out.exactly_once = false;
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("F1: edge automaton behaviour (Figure 1)");

  const Duration d1 = microseconds(10), d2 = microseconds(100);
  Table table({"policy", "spacing (us)", "sent", "delivered", "reordered %",
               "window ok", "exactly once"});
  bool all_ok = true;
  double reorder_wide = 0, reorder_narrow = 0;

  for (const char* policy : {"uniform", "min", "max", "bimodal"}) {
    for (const Duration spacing : {microseconds(5), microseconds(200)}) {
      ChannelOutcome total{};
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto o = drive(policy, d1, d2, spacing, 200, seed);
        total.sent += o.sent;
        total.delivered += o.delivered;
        total.reordered += o.reordered;
        total.window_ok = total.window_ok && o.window_ok;
        total.exactly_once = total.exactly_once && o.exactly_once;
      }
      const double rp = 100.0 * static_cast<double>(total.reordered) /
                        static_cast<double>(total.delivered);
      table.row(policy, bench::us(static_cast<double>(spacing)), total.sent,
                total.delivered, rp, total.window_ok ? "yes" : "NO",
                total.exactly_once ? "yes" : "NO");
      all_ok = all_ok && total.window_ok && total.exactly_once;
      if (std::string(policy) == "bimodal") {
        (spacing < d2 - d1 ? reorder_wide : reorder_narrow) = rp;
      }
    }
  }
  table.print(std::cout);

  bench::shape(all_ok, "every delivery in [d1,d2], exactly once");
  bench::shape(reorder_wide > 10.0,
               "bimodal policy + tight spacing reorders heavily");
  bench::shape(reorder_narrow == 0.0,
               "spacing > d2-d1 makes reordering impossible");
  return bench::finish();
}
