// Figure 13 on the runtime runner: the end-to-end system experiment (§7).
// One job per (walk, stack); both stacks of a walk replay the identical
// deployment and traffic seeds, reserved up front, so the comparison is
// paired exactly as in the standalone bench.
#include <string>

#include "sim/overall_sim.hpp"
#include "suite/suite.hpp"
#include "util/significance.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mobiwlan::benchsuite {

void run_fig13(runtime::Experiment& exp, runtime::BenchReport& report) {
  report.text += banner_text(
      "Figure 13(b) — end-to-end throughput, all four optimizations",
      "mobility-aware beats the default stack in every walk; "
      "~2x median overall in the paper");

  const int walks = 9;  // the paper ran 9 tests
  report.add_metadata("walks", std::to_string(walks));
  report.add_metadata("walk_duration_s", "60");
  const std::vector<std::uint64_t> walk_seeds =
      exp.reserve_seeds(static_cast<std::size_t>(walks));
  const std::vector<std::uint64_t> traffic_seeds =
      exp.reserve_seeds(static_cast<std::size_t>(walks));

  const auto per_run = exp.map<double>(
      static_cast<std::size_t>(walks) * 2,
      [&walk_seeds, &traffic_seeds](runtime::Trial& trial) {
        const std::size_t walk = trial.index / 2;
        // Identical walk and deployment per stack.
        Rng rng(walk_seeds[walk]);
        auto traj = WlanDeployment::corridor_walk(rng);
        WlanDeployment wlan(WlanDeployment::corridor_layout(), traj,
                            ChannelConfig{}, rng);
        OverallSimConfig cfg;
        cfg.duration_s = 60.0;
        cfg.mobility_aware = trial.index % 2 == 1;
        Rng sim_rng(traffic_seeds[walk]);
        return simulate_overall(wlan, cfg, sim_rng).throughput_mbps;
      });

  SampleSet stock;
  SampleSet aware;
  int wins = 0;
  TablePrinter t("per-walk UDP throughput (Mbps)");
  t.set_header({"walk", "default stack", "mobility-aware", "gain"});
  for (int walk = 0; walk < walks; ++walk) {
    const double s = per_run[static_cast<std::size_t>(walk) * 2];
    const double a = per_run[static_cast<std::size_t>(walk) * 2 + 1];
    stock.add(s);
    aware.add(a);
    if (a > s) ++wins;
    t.add_row({std::to_string(walk + 1), TablePrinter::num(s, 1),
               TablePrinter::num(a, 1), TablePrinter::pct(a / s - 1.0)});
  }
  report.text += t.render();
  report.text += render_cdf_table("end-to-end throughput (Mbps)",
                                  {{"802.11n default", &stock},
                                   {"motion-aware", &aware}});
  report.add_metric("stock_median_mbps", stock.median());
  report.add_metric("aware_median_mbps", aware.median());
  report.add_metric("median_gain", aware.median() / stock.median() - 1.0);
  report.add_metric("wins", wins);
  report.text += strf(
      "\nwins: %d/%d (paper: all); median gain %+.1f%% (paper: ~+100%%)\n",
      wins, walks, 100.0 * (aware.median() / stock.median() - 1.0));

  const BootstrapInterval ci =
      bootstrap_median_diff_ci(aware.samples(), stock.samples());
  report.add_metric("median_diff_ci_lo_mbps", ci.lo);
  report.add_metric("median_diff_ci_hi_mbps", ci.hi);
  report.add_metric("median_diff_point_mbps", ci.point);
  report.text += strf(
      "bootstrap 95%% CI on the median difference: [%.1f, %.1f] Mbps "
      "(point %.1f) -> %s\n",
      ci.lo, ci.hi, ci.point,
      ci.lo > 0.0 ? "significant" : "NOT significant at 95%");
}

}  // namespace mobiwlan::benchsuite
