#include "core/trace.hpp"

#include <algorithm>
#include <sstream>

namespace psc {

TimedTrace visible_trace(const TimedTrace& events) {
  return project(events, [](const TimedEvent& e) { return e.visible; });
}

TimedTrace project(const TimedTrace& events,
                   const std::function<bool(const TimedEvent&)>& keep) {
  TimedTrace out;
  out.reserve(events.size());
  for (const auto& e : events) {
    if (keep(e)) out.push_back(e);
  }
  return out;
}

TimedTrace project_node(const TimedTrace& events, int node) {
  return project(events,
                 [node](const TimedEvent& e) { return e.action.node == node; });
}

TimedTrace project_name(const TimedTrace& events, const std::string& name) {
  return project(events,
                 [&name](const TimedEvent& e) { return e.action.name == name; });
}

TimedTrace retime_by_clock(const TimedTrace& events) {
  TimedTrace out;
  out.reserve(events.size());
  for (const auto& e : events) {
    if (e.clock == kNoClockTag) continue;
    TimedEvent r = e;
    r.time = e.clock;
    out.push_back(std::move(r));
  }
  return out;
}

TimedTrace stable_sort_by_time(TimedTrace events) {
  std::stable_sort(
      events.begin(), events.end(),
      [](const TimedEvent& a, const TimedEvent& b) { return a.time < b.time; });
  return events;
}

bool is_time_ordered(const TimedTrace& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].time < events[i - 1].time) return false;
  }
  return true;
}

Time ltime(const TimedTrace& events) {
  Time t = 0;
  for (const auto& e : events) t = std::max(t, e.time);
  return t;
}

std::size_t max_events_in_window(const TimedTrace& events, Duration window) {
  std::vector<Time> times;
  times.reserve(events.size());
  for (const auto& e : events) times.push_back(e.time);
  std::sort(times.begin(), times.end());
  std::size_t best = 0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < times.size(); ++hi) {
    while (times[hi] - times[lo] > window) ++lo;
    best = std::max(best, hi - lo + 1);
  }
  return best;
}

std::string to_string(const TimedTrace& events) {
  std::ostringstream os;
  for (const auto& e : events) {
    os << format_time(e.time);
    if (e.clock != kNoClockTag) os << "[c=" << format_time(e.clock) << "]";
    os << "  " << to_string(e.action);
    if (!e.visible) os << "  (hidden)";
    os << '\n';
  }
  return os.str();
}

}  // namespace psc
