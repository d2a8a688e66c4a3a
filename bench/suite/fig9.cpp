// Figure 9 on the runtime runner: mobility-aware rate adaptation (§4.3).
//  (a) per-link TCP throughput, stock vs motion-aware Atheros RA — one job
//      per (link, variant), both variants replaying the same channel seed;
//  (b) five schemes over identical walking channels — one job per
//      (trace, scheme), all five schemes of a trace sharing one seed
//      reserved up front via Experiment::reserve_seeds().
#include <algorithm>
#include <string>

#include "chan/scenario.hpp"
#include "mac/atheros_ra.hpp"
#include "mac/esnr_ra.hpp"
#include "mac/link_sim.hpp"
#include "mac/sensor_hint_ra.hpp"
#include "mac/softrate_ra.hpp"
#include "suite/suite.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mobiwlan::benchsuite {
namespace {

LinkSimConfig tcp_config() {
  LinkSimConfig cfg;
  cfg.duration_s = 15.0;
  cfg.tcp_stall_s = 0.025;  // download TCP per the paper's §4.3 setup
  return cfg;
}

}  // namespace

/// Run one scheme over the identical channel realization (same seed).
double fig9_run_scheme(const std::string& scheme, std::uint64_t seed,
                       MobilityClass cls, const FaultPlan& fault) {
  Rng rng(seed);
  Scenario s = make_scenario(cls, rng);
  LinkSimConfig cfg = tcp_config();
  cfg.fault = fault;
  Rng frame_rng(seed + 77777);

  if (scheme == "atheros") {
    AtherosRa ra;
    return simulate_link(s, ra, cfg, frame_rng).goodput_mbps;
  }
  if (scheme == "motion-aware") {
    AtherosRa ra = make_mobility_aware_atheros_ra();
    return simulate_link(s, ra, cfg, frame_rng).goodput_mbps;
  }
  if (scheme == "rapidsample") {
    SensorHintRa ra;
    cfg.run_classifier = false;
    cfg.provide_sensor_hint = true;
    return simulate_link(s, ra, cfg, frame_rng).goodput_mbps;
  }
  if (scheme == "softrate") {
    SoftRateRa ra;
    cfg.run_classifier = false;
    cfg.provide_phy_feedback = true;
    return simulate_link(s, ra, cfg, frame_rng).goodput_mbps;
  }
  EsnrRa ra;
  cfg.run_classifier = false;
  cfg.provide_phy_feedback = true;
  return simulate_link(s, ra, cfg, frame_rng).goodput_mbps;
}

void run_fig9(runtime::Experiment& exp, runtime::BenchReport& report) {
  // (a) stock vs motion-aware per link. Each link's two variants share a
  // seed so they see the identical channel.
  report.text += banner_text(
      "Figure 9(a) — stock vs motion-aware Atheros RA, per link",
      "motion-aware wins on nearly every device-mobility link; "
      "+23% median TCP throughput in the paper");
  const int links = 15;
  report.add_metadata("links", std::to_string(links));
  report.add_metadata("traffic", "tcp 15s");
  const std::vector<std::uint64_t> link_seeds =
      exp.reserve_seeds(static_cast<std::size_t>(links));
  const char* variants[] = {"atheros", "motion-aware"};
  const auto per_link = exp.map<double>(
      static_cast<std::size_t>(links) * 2,
      [&link_seeds, &variants](runtime::Trial& trial) {
        const std::size_t link = trial.index / 2;
        const MobilityClass cls =
            link % 2 == 0 ? MobilityClass::kMacro : MobilityClass::kMicro;
        return fig9_run_scheme(variants[trial.index % 2], link_seeds[link],
                               cls);
      });
  {
    SampleSet stock;
    SampleSet aware;
    int wins = 0;
    TablePrinter t("per-link throughput (Mbps), device-mobility links, TCP");
    t.set_header({"link", "mode", "stock", "motion-aware", "gain"});
    for (int link = 0; link < links; ++link) {
      const MobilityClass cls =
          link % 2 == 0 ? MobilityClass::kMacro : MobilityClass::kMicro;
      const double s = per_link[static_cast<std::size_t>(link) * 2];
      const double a = per_link[static_cast<std::size_t>(link) * 2 + 1];
      stock.add(s);
      aware.add(a);
      if (a > s) ++wins;
      t.add_row({std::to_string(link), std::string(to_string(cls)),
                 TablePrinter::num(s, 1), TablePrinter::num(a, 1),
                 TablePrinter::pct(a / s - 1.0)});
    }
    report.text += t.render();
    report.add_metric("per_link.stock_median_mbps", stock.median());
    report.add_metric("per_link.aware_median_mbps", aware.median());
    report.add_metric("per_link.median_gain",
                      aware.median() / stock.median() - 1.0);
    report.add_metric("per_link.wins", wins);
    report.text += strf(
        "\nmedian: stock %.1f vs motion-aware %.1f Mbps -> %+.1f%% "
        "(paper: +23%%); wins: %d/%d\n",
        stock.median(), aware.median(),
        100.0 * (aware.median() / stock.median() - 1.0), wins, links);
  }

  // (b) five schemes over identical walking channels: seed per trace,
  // shared by all five scheme jobs of that trace.
  report.text += banner_text(
      "Figure 9(b) — five schemes over identical walking channels",
      "ESNR > SoftRate ~ motion-aware > RapidSample > stock; "
      "motion-aware ~90% of ESNR without client changes");
  const char* schemes[] = {"atheros", "motion-aware", "rapidsample",
                           "softrate", "esnr"};
  const int traces = 10;
  report.add_metadata("walking_traces", std::to_string(traces));
  const std::vector<std::uint64_t> trace_seeds =
      exp.reserve_seeds(static_cast<std::size_t>(traces));
  const auto per_scheme = exp.map<double>(
      static_cast<std::size_t>(traces) * 5,
      [&trace_seeds, &schemes](runtime::Trial& trial) {
        return fig9_run_scheme(schemes[trial.index % 5],
                               trace_seeds[trial.index / 5],
                               MobilityClass::kMacro);
      });
  {
    SampleSet results[5];
    for (int trace = 0; trace < traces; ++trace)
      for (int si = 0; si < 5; ++si)
        results[si].add(per_scheme[static_cast<std::size_t>(trace) * 5 +
                                   static_cast<std::size_t>(si)]);
    TablePrinter t("walking-trace throughput (Mbps), identical channels");
    t.set_header({"scheme", "p25", "median", "p75", "vs stock"});
    for (int si = 0; si < 5; ++si) {
      t.add_row(
          {schemes[si], TablePrinter::num(results[si].quantile(0.25), 1),
           TablePrinter::num(results[si].median(), 1),
           TablePrinter::num(results[si].quantile(0.75), 1),
           TablePrinter::pct(results[si].median() / results[0].median() -
                             1.0)});
      report.add_metric(strf("schemes.%s_median_mbps", schemes[si]),
                        results[si].median());
    }
    report.text += t.render();
    report.add_metric("schemes.aware_vs_esnr",
                      results[1].median() / results[4].median());
    report.text += strf("\nmotion-aware / ESNR ratio: %.2f (paper: ~0.90)\n",
                        results[1].median() / results[4].median());
  }
}

}  // namespace mobiwlan::benchsuite
