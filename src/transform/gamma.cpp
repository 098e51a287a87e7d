#include "transform/gamma.hpp"

#include <algorithm>
#include <map>

#include "util/check.hpp"

namespace psc {

namespace {

// Fills in the c_i(alpha) clock value for events that lack one (inputs
// delivered to a node by timed environment machines).
TimedTrace with_clocks(
    const TimedTrace& events,
    const std::vector<std::shared_ptr<const ClockTrajectory>>& trajectories) {
  TimedTrace out = events;
  for (auto& e : out) {
    if (e.clock == kNoClockTag && e.action.node >= 0 &&
        e.action.node < static_cast<int>(trajectories.size())) {
      e.clock = trajectories[static_cast<std::size_t>(e.action.node)]
                    ->clock_at(e.time);
    }
  }
  return out;
}

}  // namespace

TimedTrace gamma_visible(
    const TimedTrace& events,
    const std::vector<std::shared_ptr<const ClockTrajectory>>& trajectories) {
  const TimedTrace clocked = with_clocks(events, trajectories);
  return stable_sort_by_time(retime_by_clock(visible_trace(clocked)));
}

Sim1Check check_simulation1(
    const TimedTrace& events,
    const std::vector<std::shared_ptr<const ClockTrajectory>>& trajectories,
    Duration d1, Duration d2, Duration eps) {
  Sim1Check result;
  const TimedTrace clocked = with_clocks(events, trajectories);

  // (1) Clock-time delay of every message across the hidden timed-model
  // interface SENDMSG -> RECVMSG (Lemma 4.5's obligation).
  const Duration lo = d1 > 2 * eps ? d1 - 2 * eps : 0;
  const Duration hi = d2 + 2 * eps;
  std::map<std::uint64_t, Time> send_clock;
  bool first = true;
  result.delays_ok = true;
  for (const auto& e : clocked) {
    if (!e.action.msg) continue;
    if (e.action.name == names::kSendMsg) {
      send_clock[e.action.msg->uid] = e.clock;
    } else if (e.action.name == names::kRecvMsg) {
      const auto it = send_clock.find(e.action.msg->uid);
      if (it == send_clock.end()) continue;  // message born before logging
      const Duration delay = e.clock - it->second;
      if (first) {
        result.min_clock_delay = result.max_clock_delay = delay;
        first = false;
      } else {
        result.min_clock_delay = std::min(result.min_clock_delay, delay);
        result.max_clock_delay = std::max(result.max_clock_delay, delay);
      }
      ++result.messages;
      // Grid rounding can nudge a clock reading by a nanosecond or two;
      // allow that slack on the window edges.
      if (delay < lo - 2 || delay > hi + 2) result.delays_ok = false;
    }
  }

  // (2) t-trace(alpha) =eps gamma_alpha | vis.
  const TimedTrace vis = visible_trace(clocked);
  const TimedTrace gamma = stable_sort_by_time(retime_by_clock(vis));
  int max_node = -1;
  for (const auto& e : vis) max_node = std::max(max_node, e.action.node);
  // Grid-rounding slack again: compare with eps + 2ns.
  result.trace_equiv =
      eq_within(gamma, vis, eps + 2, per_node_classes(max_node + 1));
  for (const auto& e : vis) {
    if (e.clock == kNoClockTag) continue;
    result.max_perturbation = std::max<Duration>(
        result.max_perturbation, std::llabs(e.clock - e.time));
  }
  return result;
}

}  // namespace psc
