// F2 / E7 — the Figure 2 buffers and the Section 7.2 practicality claims.
//
// Measures, on register-system runs across (d1, eps) combinations:
//   * the fraction of messages the receive buffers had to hold;
//   * the worst/total clock-time a message spent buffered (Section 7.2's
//     "even when required, the buffering is not too expensive" — holds are
//     bounded by ~2eps, milliseconds for NTP-class clocks);
//   * that no buffering ever happens once d1 >= 2 eps (Section 7.2's
//     exemption rule).
#include <algorithm>

#include "common.hpp"
#include "rw/harness.hpp"

using namespace psc;

int main() {
  bench::banner("F2/E7: receive-buffer cost (Figure 2, Section 7.2)");

  RwRunConfig cfg;
  cfg.num_nodes = 3;
  cfg.d2 = microseconds(300);
  cfg.c = 0;
  cfg.super = true;
  cfg.ops_per_node = 25;
  cfg.think_max = microseconds(200);
  cfg.horizon = seconds(30);

  ZigzagDrift drift(0.35);

  Table table({"eps (us)", "d1 (us)", "d1 >= 2eps", "msgs", "buffered %",
               "max hold", "mean hold", "2eps bound"});
  bool exempt_rule = true;
  bool holds_bounded = true;
  bool buffering_occurs_when_needed = true;
  // The max hold EXPERIMENTS.md E7 quotes (eps = 150us, d1 = 0); the runs
  // are deterministic.
  Duration quoted_max_hold = -1;

  for (const Duration eps : {microseconds(20), microseconds(60),
                             microseconds(150)}) {
    cfg.eps = eps;
    for (const Duration d1 : {Duration{0}, eps, 2 * eps, 3 * eps}) {
      if (d1 > cfg.d2) continue;
      cfg.d1 = d1;
      ReceiveBufferStats total;
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        cfg.seed = seed;
        cfg.obs = bench::obs_options();
        const auto run = run_rw_clock(cfg, drift);
        total.received += run.buffer_totals.received;
        total.buffered += run.buffer_totals.buffered;
        total.total_hold += run.buffer_totals.total_hold;
        total.max_hold = std::max(total.max_hold, run.buffer_totals.max_hold);
      }
      const bool exempt = d1 >= 2 * eps;
      const double frac =
          total.received
              ? 100.0 * static_cast<double>(total.buffered) /
                    static_cast<double>(total.received)
              : 0.0;
      const double mean_hold =
          total.buffered
              ? static_cast<double>(total.total_hold) /
                    static_cast<double>(total.buffered)
              : 0.0;
      table.row(bench::us(static_cast<double>(eps)),
                bench::us(static_cast<double>(d1)), exempt ? "yes" : "no",
                total.received, frac, format_time(total.max_hold),
                format_time(static_cast<Duration>(mean_hold)),
                format_time(2 * eps));
      if (exempt && total.buffered != 0) exempt_rule = false;
      // A held message waits until clock reaches its tag: the hold is at
      // most (tag - arrival clock) <= 2eps - d1 <= 2eps (plus ns rounding).
      if (total.max_hold > 2 * eps + 2) holds_bounded = false;
      if (eps == microseconds(150) && d1 == 0) {
        quoted_max_hold = total.max_hold;
      }
      if (!exempt && d1 == 0 && total.buffered == 0) {
        buffering_occurs_when_needed = false;
      }
    }
  }
  table.print(std::cout);

  bench::shape(exempt_rule,
               "d1 >= 2eps => zero buffering (Section 7.2 exemption)");
  bench::shape(holds_bounded, "every hold is <= 2eps (cheap, as argued)");
  bench::shape(buffering_occurs_when_needed,
               "with d1 = 0 and hostile clocks, buffering does occur");
  bench::shape(quoted_max_hold == 236'798,
               "max hold at eps = 150us, d1 = 0 is 236.798us "
               "(EXPERIMENTS.md E7)");
  return bench::finish();
}
