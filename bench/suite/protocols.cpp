// The protocol figures: roaming (Fig 7), optimal bit-rate behaviour
// (Fig 8), frame aggregation (Fig 10), SU beamforming (Fig 11), MU-MIMO
// (Fig 12), and the per-mode parameter matrix (Table 2). Trials that build
// their own generators from the experiment seed plus a fixed offset run as
// one job each; Fig 8 and the Fig 7(a) draws come in sequence from one
// master generator.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "mac/atheros_ra.hpp"
#include "mac/link_sim.hpp"
#include "net/deployment.hpp"
#include "net/roaming.hpp"
#include "phy/error_model.hpp"
#include "sim/beamforming_sim.hpp"
#include "suite/suite.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mobiwlan::benchsuite {
namespace {

// ---- Figure 7 ------------------------------------------------------------

constexpr double kSpacing = 35.0;  // must match corridor_layout()

std::shared_ptr<const Trajectory> trajectory_for(MobilityMode mode, Rng& rng,
                                                 double corridor_len) {
  const Vec2 start{rng.uniform(10.0, corridor_len - 10.0), rng.uniform(-6.0, 6.0)};
  switch (mode) {
    case MobilityMode::kStatic:
    case MobilityMode::kEnvironmental:
    case MobilityMode::kMacroOrbit:  // not drawn by Fig 7
      return std::make_shared<StaticTrajectory>(start);
    case MobilityMode::kMicro:
      return std::make_shared<MicroTrajectory>(start, rng);
    case MobilityMode::kMacroToward: {
      // Walk toward the nearest AP along the corridor: the serving AP only
      // gets closer, so roaming should buy nothing.
      const double nearest = std::round(start.x / kSpacing) * kSpacing;
      const Vec2 dir{nearest - start.x, -start.y};
      return std::make_shared<LinearTrajectory>(start, dir, 1.2);
    }
    case MobilityMode::kMacroAway: {
      // Walk away from the nearest AP down the corridor, toward its
      // neighbor: exactly the case where a better AP appears mid-walk.
      const double nearest = std::round(start.x / kSpacing) * kSpacing;
      double away = start.x >= nearest ? 1.0 : -1.0;
      // Head toward the interior so a neighbor AP actually exists.
      if (nearest <= 0.0) away = 1.0;
      if (nearest >= corridor_len) away = -1.0;
      return std::make_shared<LinearTrajectory>(start, Vec2{away, 0.05}, 1.2);
    }
  }
  return std::make_shared<StaticTrajectory>(start);
}

// ---- Figure 8 ------------------------------------------------------------

/// Oracle optimal MCS series sampled every `step` seconds.
std::vector<int> optimal_series(Scenario& s, double duration_s, double step) {
  std::vector<int> out;
  for (double t = 0.0; t < duration_s; t += step) {
    const double snr =
        effective_snr_db(s.channel->csi_true(t), s.channel->snr_db(t));
    out.push_back(best_mcs(snr, 1500, 2));
  }
  return out;
}

/// Durations (seconds) for which the optimal rate was stable.
SampleSet hold_durations(MobilityClass cls, int trials, Rng& master,
                         double step = 0.05) {
  SampleSet out;
  for (int trial = 0; trial < trials; ++trial) {
    Scenario s = make_scenario(cls, master);
    const auto series = optimal_series(s, 20.0, step);
    double hold = step;
    for (std::size_t i = 1; i < series.size(); ++i) {
      if (series[i] == series[i - 1]) {
        hold += step;
      } else {
        out.add(hold);
        hold = step;
      }
    }
    out.add(hold);
  }
  return out;
}

std::string mcs_series_text(const char* name, const std::vector<int>& series,
                            double step) {
  std::string text = strf("%s (optimal MCS every %.1f s):\n  ", name, step);
  for (std::size_t i = 0; i < series.size(); ++i) {
    text += strf("%3d", series[i]);
    if ((i + 1) % 20 == 0) text += "\n  ";
  }
  return text + "\n";
}

// ---- Figures 10-12 -------------------------------------------------------

double run_link(MobilityClass cls, bool adaptive, double fixed_limit,
                std::uint64_t seed) {
  Rng rng(seed);
  Scenario s = make_scenario(cls, rng);
  AtherosRa ra;  // stock RA for all: isolate the aggregation policy
  LinkSimConfig cfg;
  cfg.duration_s = 10.0;
  cfg.aggregation.adaptive = adaptive;
  cfg.aggregation.fixed_limit_s = fixed_limit;
  Rng frame_rng(seed + 31337);
  return simulate_link(s, ra, cfg, frame_rng).goodput_mbps;
}

double run_bf(MobilityClass cls, bool adaptive, double fixed_period,
              std::uint64_t seed) {
  Rng rng(seed);
  // Beamforming links in the paper are the longer office links; keep the
  // default draw range but a single RX chain (the BF client was another AP).
  ScenarioOptions opt;
  opt.channel.n_rx = 1;
  // Beamforming pays off at cell edge: the 4.8 dB array gain is worth 2-3
  // MCS steps there, and stale beams lose all of it.
  opt.min_distance_m = 26.0;
  opt.max_distance_m = 48.0;
  opt.min_link_snr_db = 5.0;
  Scenario s = make_scenario(cls, rng, opt);
  BeamformingSimConfig cfg;
  cfg.duration_s = 10.0;
  cfg.adaptive_period = adaptive;
  cfg.fixed_period_s = fixed_period;
  return simulate_su_beamforming(s, cfg).throughput_mbps;
}

/// One MU-MIMO draw (Fig 12): an environmental, a micro and a macro
/// single-antenna client drawn from `seed`, served for 8 s.
MuMimoSimResult run_trio(std::uint64_t seed, bool adaptive, double period) {
  Rng rng(seed);
  ScenarioOptions opt;
  opt.channel.n_rx = 1;  // single-antenna MU-MIMO clients
  Scenario env = make_scenario(MobilityClass::kEnvironmental, rng, opt);
  Scenario micro = make_scenario(MobilityClass::kMicro, rng, opt);
  Scenario macro = make_scenario(MobilityClass::kMacro, rng, opt);
  BeamformingSimConfig cfg;
  cfg.duration_s = 8.0;
  cfg.adaptive_period = adaptive;
  cfg.fixed_period_s = period;
  return simulate_mu_mimo({&env, &micro, &macro}, cfg);
}

}  // namespace

void run_fig7(runtime::Experiment& exp, runtime::BenchReport& report) {
  const std::uint64_t seed = exp.master_seed();
  const double corridor_len = 5.0 * kSpacing;

  report.text += banner_text(
      "Figure 7(a) — gain from roaming to the strongest AP vs sticking",
      "marginal for static/environmental/micro and moving-toward; "
      "significant only when moving away from the current AP");
  {
    const MobilityMode modes[] = {
        MobilityMode::kMacroToward, MobilityMode::kEnvironmental,
        MobilityMode::kMicro, MobilityMode::kStatic, MobilityMode::kMacroAway};
    const int trials = 10;
    Rng master(seed);
    const std::vector<Rng> rngs = split_rows(master, 5 * trials);
    const auto gains = exp.map<double>(5 * trials, [&](runtime::Trial& trial) {
      const MobilityMode mode = modes[trial.index / trials];
      Rng rng = rngs[trial.index];
      ChannelConfig cfg;
      cfg.activity = mode == MobilityMode::kEnvironmental
                         ? EnvironmentalActivity::kStrong
                         : EnvironmentalActivity::kNone;
      auto traj = trajectory_for(mode, rng, corridor_len);
      WlanDeployment wlan(WlanDeployment::corridor_layout(), traj, cfg, rng);
      RoamingConfig rc;
      rc.duration_s = 30.0;  // a full inter-AP gap at walking speed
      const auto [oracle, stick] = oracle_vs_stick(wlan, rc);
      return stick > 0 ? oracle / stick - 1.0 : 0.0;
    });
    TablePrinter t("oracle-vs-stick throughput gain per mobility mode");
    t.set_header({"mode", "median gain", "p75 gain"});
    for (int m = 0; m < 5; ++m) {
      SampleSet g(std::vector<double>(gains.begin() + m * trials,
                                      gains.begin() + (m + 1) * trials));
      t.add_row({std::string(to_string(modes[m])), TablePrinter::pct(g.median()),
                 TablePrinter::pct(g.quantile(0.75))});
    }
    report.text += t.render();
  }

  report.text += banner_text(
      "Figure 7(b) — walking-client throughput per roaming scheme",
      "motion-aware > sensor-hint > default; ~30% median gain of "
      "motion-aware over the default sticky client");
  {
    const int walks = 12;
    const auto runs = exp.map<RoamingResult>(
        walks * 3, [seed](runtime::Trial& trial) {
          const std::uint64_t walk = trial.index / 3;
          // Identical walk + deployment per scheme (same seeds).
          Rng rng(seed + 1000 + walk);
          auto traj = WlanDeployment::corridor_walk(rng);
          WlanDeployment wlan(WlanDeployment::corridor_layout(), traj,
                              ChannelConfig{}, rng);
          RoamingConfig rc;
          rc.duration_s = 75.0;
          const auto scheme = static_cast<RoamingScheme>(trial.index % 3);
          return simulate_roaming(wlan, scheme, rc);
        });
    SampleSet by_scheme[3];
    int handoffs[3] = {0, 0, 0};
    for (std::size_t i = 0; i < runs.size(); ++i) {
      by_scheme[i % 3].add(runs[i].mean_throughput_mbps);
      handoffs[i % 3] += runs[i].handoffs;
    }
    report.text += render_cdf_table("throughput (Mbps) per scheme",
                                    {{"default", &by_scheme[0]},
                                     {"sensor-hint", &by_scheme[1]},
                                     {"motion-aware", &by_scheme[2]}});
    report.text += strf("\nhandoffs per walk: default %.1f | sensor-hint %.1f | "
                        "motion-aware %.1f\n",
                        static_cast<double>(handoffs[0]) / walks,
                        static_cast<double>(handoffs[1]) / walks,
                        static_cast<double>(handoffs[2]) / walks);
    report.text += strf(
        "median gain over default: sensor-hint %+.1f%% | "
        "motion-aware %+.1f%% (paper: motion-aware ~+30%%, above "
        "sensor-hint)\n",
        100.0 * (by_scheme[1].median() / by_scheme[0].median() - 1.0),
        100.0 * (by_scheme[2].median() / by_scheme[0].median() - 1.0));
  }
}

void run_fig8(runtime::Experiment& exp, runtime::BenchReport& report) {
  report.text += sequential_text(exp, [](Rng& master) {
    std::string text = banner_text(
        "Figure 8(a) — CDF of time a bit-rate stays optimal",
        "static holds for seconds; device mobility changes the "
        "optimal rate within hundreds of milliseconds");
    {
      const SampleSet st = hold_durations(MobilityClass::kStatic, 8, master);
      const SampleSet en =
          hold_durations(MobilityClass::kEnvironmental, 8, master);
      const SampleSet mi = hold_durations(MobilityClass::kMicro, 8, master);
      const SampleSet ma = hold_durations(MobilityClass::kMacro, 8, master);
      text += render_cdf_table("optimal-rate hold duration (s)",
                               {{"static", &st},
                                {"environmental", &en},
                                {"micro", &mi},
                                {"macro", &ma}});
      text += strf("\nShape check: static median %.2f s vs macro median "
                   "%.2f s (expected: order-of-magnitude gap)\n",
                   st.median(), ma.median());
    }

    text += banner_text(
        "Figure 8(b) — optimal MCS over time, moving toward / away",
        "toward: rate ramps upward; away: rate ramps downward");
    {
      Scenario toward = make_radial_scenario(true, 32.0, master);
      const auto toward_series = optimal_series(toward, 20.0, 1.0);
      text += mcs_series_text("moving toward", toward_series, 1.0);

      Scenario away = make_radial_scenario(false, 8.0, master);
      const auto away_series = optimal_series(away, 20.0, 1.0);
      text += mcs_series_text("moving away", away_series, 1.0);

      text += strf("\nShape check: toward net change %+d MCS, away net "
                   "change %+d MCS (expected: positive / negative)\n",
                   toward_series.back() - toward_series.front(),
                   away_series.back() - away_series.front());
    }

    text += banner_text(
        "Figure 8(c) — optimal MCS over time, environmental / micro",
        "no directional trend; stays within a small band of rates");
    {
      Scenario env =
          make_environmental_scenario(EnvironmentalActivity::kStrong, master);
      const auto env_series = optimal_series(env, 20.0, 1.0);
      text += mcs_series_text("environmental", env_series, 1.0);

      Scenario micro = make_scenario(MobilityClass::kMicro, master);
      const auto micro_series = optimal_series(micro, 20.0, 1.0);
      text += mcs_series_text("micro", micro_series, 1.0);

      const auto band = [](const std::vector<int>& xs) {
        const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
        return *hi - *lo;
      };
      text += strf("\nShape check: env band %d MCS, micro band %d MCS "
                   "(expected: small; cf. toward/away ramps above)\n",
                   band(env_series), band(micro_series));
    }
    return text;
  });
}

void run_fig10(runtime::Experiment& exp, runtime::BenchReport& report) {
  const std::uint64_t seed = exp.master_seed();

  report.text += banner_text(
      "Figure 10(a) — throughput vs max aggregation time per mode",
      "static/environmental peak at 8 ms; micro/macro peak at 2 ms "
      "(long frames outlive the channel estimate under motion)");
  {
    const double limits[3] = {2e-3, 4e-3, 8e-3};
    const int links = 8;
    // Job index = (class * 3 + limit) * links + link.
    const auto tput = exp.map<double>(4 * 3 * links,
                                      [&](runtime::Trial& trial) {
      const std::size_t cell = trial.index / links;
      return run_link(kClasses[cell / 3], false, limits[cell % 3],
                      seed + 900 + trial.index % links);
    });
    TablePrinter t("mean throughput (Mbps) vs aggregation time");
    t.set_header({"mode", "2 ms", "4 ms", "8 ms", "best"});
    for (int c = 0; c < 4; ++c) {
      double means[3];
      for (int li = 0; li < 3; ++li) {
        const auto first = tput.begin() + (c * 3 + li) * links;
        means[li] = SampleSet(std::vector<double>(first, first + links)).mean();
      }
      const int best =
          static_cast<int>(std::max_element(means, means + 3) - means);
      const char* labels[3] = {"2 ms", "4 ms", "8 ms"};
      t.add_row({std::string(to_string(kClasses[c])),
                 TablePrinter::num(means[0], 1), TablePrinter::num(means[1], 1),
                 TablePrinter::num(means[2], 1), labels[best]});
    }
    report.text += t.render();
  }

  report.text += banner_text(
      "Figure 10(b) — adaptive vs statically configured aggregation",
      "adaptive beats the stock 4 ms default (~15% median) and the "
      "8 ms configuration on mixed-mobility links");
  {
    const MobilityClass mix[] = {MobilityClass::kStatic, MobilityClass::kMicro,
                                 MobilityClass::kMacro, MobilityClass::kMacro,
                                 MobilityClass::kEnvironmental};
    const int links = 15;
    // Per link: adaptive, fixed 4 ms, fixed 8 ms over the same seed.
    const auto tput = exp.map<double>(links * 3, [&](runtime::Trial& trial) {
      const std::size_t link = trial.index / 3;
      const std::size_t variant = trial.index % 3;
      return run_link(mix[link % 5], variant == 0, variant == 2 ? 8e-3 : 4e-3,
                      seed + 1200 + link);
    });
    SampleSet adaptive;
    SampleSet fixed4;
    SampleSet fixed8;
    for (int link = 0; link < links; ++link) {
      adaptive.add(tput[link * 3]);
      fixed4.add(tput[link * 3 + 1]);
      fixed8.add(tput[link * 3 + 2]);
    }
    report.text += render_cdf_table("throughput (Mbps)",
                                    {{"aggregation 8 ms", &fixed8},
                                     {"aggregation 4 ms", &fixed4},
                                     {"adaptive", &adaptive}});
    report.text += strf("\nmedian gain of adaptive over the 4 ms default: "
                        "%+.1f%% (paper: ~+15%%); over 8 ms: %+.1f%%\n",
                        100.0 * (adaptive.median() / fixed4.median() - 1.0),
                        100.0 * (adaptive.median() / fixed8.median() - 1.0));
  }
}

void run_fig11(runtime::Experiment& exp, runtime::BenchReport& report) {
  const std::uint64_t seed = exp.master_seed();

  report.text += banner_text(
      "Figure 11(a) — SU-BF throughput vs CSI feedback period",
      "static: monotonically better with longer periods; mobile "
      "modes: an interior optimum, then decay as the beam goes stale");
  {
    const double periods[] = {2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 200e-3};
    const int links = 6;
    // Job index = (class * 6 + period) * links + link.
    const auto tput = exp.map<double>(4 * 6 * links,
                                      [&](runtime::Trial& trial) {
      const std::size_t cell = trial.index / links;
      return run_bf(kClasses[cell / 6], false, periods[cell % 6],
                    seed + 2100 + trial.index % links);
    });
    TablePrinter t("mean throughput (Mbps) vs feedback period");
    t.set_header({"mode", "2 ms", "5 ms", "10 ms", "20 ms", "50 ms", "200 ms"});
    for (int c = 0; c < 4; ++c) {
      std::vector<std::string> row{std::string(to_string(kClasses[c]))};
      for (int p = 0; p < 6; ++p) {
        const auto first = tput.begin() + (c * 6 + p) * links;
        row.push_back(TablePrinter::num(
            SampleSet(std::vector<double>(first, first + links)).mean(), 1));
      }
      t.add_row(row);
    }
    report.text += t.render();
  }

  report.text += banner_text(
      "Figure 11(b) — adaptive feedback period vs the stock default",
      "median throughput gain ~33% across mobile links");
  {
    const MobilityClass mix[] = {MobilityClass::kStatic, MobilityClass::kMicro,
                                 MobilityClass::kMacro,
                                 MobilityClass::kEnvironmental};
    const double stock_period = default_params().bf_update_period_s;
    const int links = 16;
    // Per link: adaptive, then the stock fixed period, over the same seed.
    const auto tput = exp.map<double>(links * 2, [&](runtime::Trial& trial) {
      const std::size_t link = trial.index / 2;
      return run_bf(mix[link % 4], trial.index % 2 == 0, stock_period,
                    seed + 2400 + link);
    });
    SampleSet adaptive;
    SampleSet fixed_default;
    for (int link = 0; link < links; ++link) {
      adaptive.add(tput[link * 2]);
      fixed_default.add(tput[link * 2 + 1]);
    }
    report.text += render_cdf_table("throughput (Mbps)",
                                    {{"default (2 ms)", &fixed_default},
                                     {"motion-aware period", &adaptive}});
    report.text +=
        strf("\nmedian gain: %+.1f%% (paper: ~+33%%)\n",
             100.0 * (adaptive.median() / fixed_default.median() - 1.0));
  }
}

void run_fig12(runtime::Experiment& exp, runtime::BenchReport& report) {
  const std::uint64_t seed = exp.master_seed();

  report.text += banner_text(
      "Figure 12(a) — MU-MIMO throughput vs CSI feedback period",
      "3 clients (env/micro/macro): stale feedback collapses the "
      "mobile client's SINR while static clients barely move");
  {
    const double periods[] = {2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 200e-3};
    const int draws = 4;
    const auto runs = exp.map<MuMimoSimResult>(
        6 * draws, [&](runtime::Trial& trial) {
          const std::size_t draw = trial.index % draws;
          return run_trio(seed + 3000 + draw, false,
                          periods[trial.index / draws]);
        });
    TablePrinter t("per-client throughput (Mbps) vs feedback period");
    t.set_header({"period", "environmental", "micro", "macro", "total"});
    for (int p = 0; p < 6; ++p) {
      double sums[4] = {0, 0, 0, 0};
      for (int draw = 0; draw < draws; ++draw) {
        const MuMimoSimResult& r = runs[p * draws + draw];
        for (int k = 0; k < 3; ++k) sums[k] += r.per_client_mbps[k];
        sums[3] += r.total_mbps;
      }
      t.add_row({strf("%.0f ms", periods[p] * 1e3),
                 TablePrinter::num(sums[0] / draws, 1),
                 TablePrinter::num(sums[1] / draws, 1),
                 TablePrinter::num(sums[2] / draws, 1),
                 TablePrinter::num(sums[3] / draws, 1)});
    }
    report.text += t.render();
  }

  report.text += banner_text(
      "Figure 12(b) — adaptive per-client periods vs 2 ms default",
      "gain for every client mix; largest for macro clients; "
      "~40% average network-throughput improvement");
  {
    const int draws = 12;
    // Per draw: adaptive, then the stock always-sound 2 ms default, over
    // identical channels.
    const auto runs = exp.map<MuMimoSimResult>(
        draws * 2, [&](runtime::Trial& trial) {
          const std::uint64_t draw_seed = seed + 3500 + trial.index / 2;
          return run_trio(draw_seed, trial.index % 2 == 0, 2e-3);
        });
    SampleSet gains;
    SampleSet macro_gains;
    for (int draw = 0; draw < draws; ++draw) {
      const MuMimoSimResult& adaptive = runs[draw * 2];
      const MuMimoSimResult& fixed = runs[draw * 2 + 1];
      gains.add(adaptive.total_mbps / fixed.total_mbps - 1.0);
      macro_gains.add(adaptive.per_client_mbps[2] / fixed.per_client_mbps[2] -
                      1.0);
    }
    report.text += render_cdf_table("throughput gain (fraction)",
                                    {{"network total", &gains},
                                     {"macro client", &macro_gains}});
    report.text += strf("\nmean network gain: %+.1f%% (paper: ~+40%%); "
                        "macro-client mean gain: %+.1f%% (paper: largest of "
                        "the three)\n",
                        100.0 * gains.mean(), 100.0 * macro_gains.mean());
  }
}

void run_table2(runtime::Experiment&, runtime::BenchReport& report) {
  report.text += banner_text(
      "Table 2 — mobility-aware protocol actions",
      "per-mode parameters for roaming, rate adaptation, frame "
      "aggregation, beamforming and MU-MIMO (OCR-ambiguous cells "
      "documented in DESIGN.md)");

  const MobilityMode modes[] = {MobilityMode::kStatic,
                                MobilityMode::kEnvironmental,
                                MobilityMode::kMicro, MobilityMode::kMacroAway,
                                MobilityMode::kMacroToward};
  const auto fmt_ms = [](double s) {
    return TablePrinter::num(s * 1e3, 0) + " ms";
  };
  const auto fmt_alpha = [](double a) {
    return "1/" + TablePrinter::num(1.0 / a, 0);
  };

  TablePrinter t("Table 2 (plus the stock mobility-oblivious column)");
  t.set_header({"parameter", "static", "environment", "micro", "away",
                "towards", "stock"});
  // One row: the cell for each mode, then the stock column (roaming names
  // its stock cell differently, so it is built by hand).
  const auto add_row = [&](const char* name, auto cell) {
    std::vector<std::string> row{name};
    for (const MobilityMode m : modes) row.push_back(cell(mobility_params(m)));
    row.push_back(cell(default_params()));
    t.add_row(row);
  };
  std::vector<std::string> roaming{"roaming preparation"};
  for (const MobilityMode m : modes)
    roaming.push_back(mobility_params(m).encourage_roaming ? "encourage roam"
                                                           : "no");
  roaming.push_back(default_params().encourage_roaming ? "yes" : "no");
  t.add_row(roaming);
  add_row("probe interval",
          [&](const ProtocolParams& p) { return fmt_ms(p.probe_interval_s); });
  add_row("PER smoothing factor", [&](const ProtocolParams& p) {
    return fmt_alpha(p.per_smoothing_alpha);
  });
  add_row("rate retries", [](const ProtocolParams& p) {
    return std::to_string(p.rate_retries);
  });
  add_row("aggregation limit", [&](const ProtocolParams& p) {
    return fmt_ms(p.aggregation_limit_s);
  });
  add_row("beamforming CV update", [&](const ProtocolParams& p) {
    return fmt_ms(p.bf_update_period_s);
  });
  add_row("MU-MIMO CV update", [&](const ProtocolParams& p) {
    return fmt_ms(p.mumimo_update_period_s);
  });
  report.text += t.render();
}

}  // namespace mobiwlan::benchsuite
