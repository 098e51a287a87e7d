#include "core/relations.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/check.hpp"

namespace psc {

namespace {

constexpr int kUnclassed = -1;

// Index of the (unique) class containing `a`, or kUnclassed.
int class_of(const Action& a, const std::vector<ActionClass>& klasses) {
  int found = kUnclassed;
  for (std::size_t k = 0; k < klasses.size(); ++k) {
    if (klasses[k](a)) {
      PSC_CHECK(found == kUnclassed,
                "action " << to_string(a) << " is in two classes (" << found
                          << " and " << k << ")");
      found = static_cast<int>(k);
    }
  }
  return found;
}

// Events of `t` grouped by class, each group in trace order: slot k holds
// class k and the last slot (index klasses.size()) the unclassed events.
// Each event is classified once.
std::vector<std::vector<const TimedEvent*>> partition(
    const TimedTrace& t, const std::vector<ActionClass>& klasses) {
  std::vector<std::vector<const TimedEvent*>> out(klasses.size() + 1);
  for (const auto& e : t) {
    const int k = class_of(e.action, klasses);
    out[k == kUnclassed ? klasses.size() : static_cast<std::size_t>(k)]
        .push_back(&e);
  }
  return out;
}

std::string mismatch(const char* what, const TimedEvent& a,
                     const TimedEvent& b) {
  std::ostringstream os;
  os << what << ": " << to_string(a.action) << " @" << format_time(a.time)
     << " vs " << to_string(b.action) << " @" << format_time(b.time);
  return os.str();
}

}  // namespace

RelationResult eq_within(const TimedTrace& alpha1, const TimedTrace& alpha2,
                         Duration eps, const std::vector<ActionClass>& kappa) {
  if (alpha1.size() != alpha2.size()) {
    return {false, "different lengths: " + std::to_string(alpha1.size()) +
                       " vs " + std::to_string(alpha2.size())};
  }
  const auto parts1 = partition(alpha1, kappa);
  const auto parts2 = partition(alpha2, kappa);
  // Classed actions: positional matching per class.
  for (std::size_t k = 0; k < kappa.size(); ++k) {
    const auto& xs = parts1[k];
    const auto& ys = parts2[k];
    if (xs.size() != ys.size()) {
      return {false, "class " + std::to_string(k) + " sizes differ"};
    }
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (!(xs[j]->action == ys[j]->action)) {
        return {false, mismatch("class action order/content", *xs[j], *ys[j])};
      }
      if (std::llabs(xs[j]->time - ys[j]->time) > eps) {
        return {false, mismatch("class time perturbation > eps", *xs[j],
                                *ys[j])};
      }
    }
  }
  // Unclassed actions: optimal interval matching per action identity.
  const auto& xs = parts1.back();
  const auto& ys = parts2.back();
  if (xs.size() != ys.size()) {
    return {false, "unclassed action counts differ"};
  }
  std::map<std::string, std::vector<Time>> left, right;
  for (const auto* e : xs) left[to_string(e->action)].push_back(e->time);
  for (const auto* e : ys) right[to_string(e->action)].push_back(e->time);
  if (left.size() != right.size()) {
    return {false, "unclassed action identities differ"};
  }
  for (auto& [key, ts1] : left) {
    auto it = right.find(key);
    if (it == right.end() || it->second.size() != ts1.size()) {
      return {false, "occurrence counts differ for " + key};
    }
    auto& ts2 = it->second;
    std::sort(ts1.begin(), ts1.end());
    std::sort(ts2.begin(), ts2.end());
    for (std::size_t j = 0; j < ts1.size(); ++j) {
      if (std::llabs(ts1[j] - ts2[j]) > eps) {
        return {false, "time perturbation > eps for " + key};
      }
    }
  }
  return {true, ""};
}

RelationResult shifted_within(const TimedTrace& alpha1,
                              const TimedTrace& alpha2, Duration delta,
                              const std::vector<ActionClass>& klasses) {
  if (alpha1.size() != alpha2.size()) {
    return {false, "different lengths: " + std::to_string(alpha1.size()) +
                       " vs " + std::to_string(alpha2.size())};
  }
  const auto parts1 = partition(alpha1, klasses);
  const auto parts2 = partition(alpha2, klasses);
  // Class actions: positional; shift into [0, delta].
  for (std::size_t k = 0; k < klasses.size(); ++k) {
    const auto& xs = parts1[k];
    const auto& ys = parts2[k];
    if (xs.size() != ys.size()) {
      return {false, "class " + std::to_string(k) + " sizes differ"};
    }
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (!(xs[j]->action == ys[j]->action)) {
        return {false, mismatch("class action order/content", *xs[j], *ys[j])};
      }
      const Duration shift = ys[j]->time - xs[j]->time;
      if (shift < 0 || shift > delta) {
        return {false, mismatch("shift outside [0, delta]", *xs[j], *ys[j])};
      }
    }
  }
  // Unclassed actions: exact times, order preserved => positional and equal.
  const auto& xs = parts1.back();
  const auto& ys = parts2.back();
  if (xs.size() != ys.size()) {
    return {false, "unclassed action counts differ"};
  }
  for (std::size_t j = 0; j < xs.size(); ++j) {
    if (!(xs[j]->action == ys[j]->action)) {
      return {false, mismatch("unclassed action order/content", *xs[j],
                              *ys[j])};
    }
    if (xs[j]->time != ys[j]->time) {
      return {false, mismatch("unclassed time changed", *xs[j], *ys[j])};
    }
  }
  return {true, ""};
}

std::vector<ActionClass> per_node_classes(int num_nodes) {
  std::vector<ActionClass> out;
  out.reserve(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    out.push_back([i](const Action& a) { return a.node == i; });
  }
  return out;
}

std::vector<ActionClass> per_node_output_classes(
    int num_nodes, std::vector<std::string> output_names) {
  std::vector<ActionClass> out;
  out.reserve(static_cast<std::size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    out.push_back([i, output_names](const Action& a) {
      if (a.node != i) return false;
      return std::find(output_names.begin(), output_names.end(), a.name) !=
             output_names.end();
    });
  }
  return out;
}

}  // namespace psc
