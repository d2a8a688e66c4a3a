// The classifier-signal figures (§2): RSSI variation (Fig 1), CSI
// similarity (Fig 2), ToF trends (Fig 4) and the sensitivity of the two
// detector halves (Fig 6). Each draws its scenarios in sequence from one
// master generator seeded with the experiment seed; where a figure splits
// that generator per table row, the rows are split in order up front and
// run as separate jobs.
#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chan/channel_batch.hpp"
#include "core/csi_similarity.hpp"
#include "core/mobility_classifier.hpp"
#include "fidelity/fidelity.hpp"
#include "runtime/classifier_driver.hpp"
#include "suite/suite.hpp"
#include "util/filters.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mobiwlan::benchsuite {

std::vector<double> similarity_trial(MobilityClass cls,
                                     std::optional<EnvironmentalActivity> act,
                                     double period_s, Rng& rng) {
  Scenario s = act ? make_environmental_scenario(*act, rng)
                   : make_scenario(cls, rng);
  std::vector<double> out;
  ChannelBatch::Scratch scratch;
  CsiMatrix prev, cur;
  ChannelBatch::csi_link(*s.channel, 0.0, prev, scratch);
  for (double t = period_s; t < 15.0; t += period_s) {
    ChannelBatch::csi_link(*s.channel, t, cur, scratch);
    out.push_back(csi_similarity(prev, cur));
    std::swap(prev, cur);
  }
  return out;
}

std::vector<double> tof_median_series(Scenario& s, double duration_s) {
  std::vector<double> out;
  MedianAggregator agg;
  double epoch = 0.0;
  for (double t = 0.0; t < duration_s; t += 0.02) {
    if (t - epoch >= 1.0) {
      if (auto m = agg.flush()) out.push_back(*m);
      epoch += 1.0;
    }
    agg.add(s.channel->tof_cycles(t));
  }
  return out;
}

namespace {

// ---- Figure 1 ------------------------------------------------------------

/// RSSI read from every ACK, std-dev per 5-second window (§2.2 / Fig. 1).
void add_rssi_stddevs(const Scenario& s, SampleSet& out) {
  for (double window = 0.0; window < 30.0; window += 5.0) {
    std::vector<double> rssi;
    for (double t = window; t < window + 5.0; t += 0.05)
      rssi.push_back(s.channel->rssi_dbm(t));
    out.add(stddev_of(rssi));
  }
}

SampleSet rssi_stddevs(MobilityClass cls, int trials, Rng& master) {
  SampleSet out;
  for (int trial = 0; trial < trials; ++trial)
    add_rssi_stddevs(make_scenario(cls, master), out);
  return out;
}

// ---- Figure 2 ------------------------------------------------------------

/// Similarity samples of `trials` scenarios drawn in sequence from `rng`.
SampleSet similarities(MobilityClass cls,
                       std::optional<EnvironmentalActivity> activity,
                       double period_s, int trials, Rng& rng) {
  SampleSet out;
  for (int trial = 0; trial < trials; ++trial)
    out.add_all(similarity_trial(cls, activity, period_s, rng));
  return out;
}

/// The five scenario kinds of Fig 2(a)/(b), in column order.
std::array<SampleSet, 5> similarity_row(double period_s, int trials,
                                        Rng& row) {
  using EA = EnvironmentalActivity;
  return {similarities(MobilityClass::kStatic, std::nullopt, period_s, trials,
                       row),
          similarities(MobilityClass::kEnvironmental, EA::kWeak, period_s,
                       trials, row),
          similarities(MobilityClass::kEnvironmental, EA::kStrong, period_s,
                       trials, row),
          similarities(MobilityClass::kMicro, std::nullopt, period_s, trials,
                       row),
          similarities(MobilityClass::kMacro, std::nullopt, period_s, trials,
                       row)};
}

std::string period_label(double period_s) {
  return strf("%.0f ms", period_s * 1e3);
}

// ---- Figure 6 ------------------------------------------------------------

/// Fraction of `a` seconds that hit, and of `b` seconds that false-alarm.
std::pair<double, double> rates(const HitCounts& a, const HitCounts& b) {
  return {static_cast<double>(a.hits) / std::max(1, a.total),
          static_cast<double>(b.hits) / std::max(1, b.total)};
}

/// Runs the classifier over `s` and counts the seconds `hit` accepts.
void count_seconds(const Scenario& s, double duration_s, double warmup_s,
                   const MobilityClassifier::Config& cfg,
                   bool (*hit)(MobilityMode), HitCounts& out) {
  trace::LiveChannelSource live(*s.channel);
  runtime::run_classifier(
      live, 0, duration_s, warmup_s,
      [&](double, const MobilityClassifier& clf) {
        ++out.total;
        if (hit(clf.mode())) ++out.hits;
      },
      cfg);
}

bool device_mode(MobilityMode m) { return is_device_mobility(m); }
bool macro_mode(MobilityMode m) { return is_macro(m); }

/// (a): fraction of device-mobility seconds detected as device mobility
/// (accuracy) and of static seconds flagged as device mobility (FP).
std::pair<double, double> csi_detection(double csi_period_s, int trials,
                                        Rng& master) {
  MobilityClassifier::Config cfg;
  cfg.csi_period_s = csi_period_s;
  HitCounts device, static_fp;
  for (int trial = 0; trial < trials; ++trial) {
    count_seconds(make_scenario(trial % 2 == 0 ? MobilityClass::kMicro
                                               : MobilityClass::kMacro,
                                master),
                  25.0, 8.0, cfg, device_mode, device);
    count_seconds(make_scenario(MobilityClass::kStatic, master), 25.0, 8.0,
                  cfg, device_mode, static_fp);
  }
  return rates(device, static_fp);
}

/// (b): macro detection accuracy and micro->macro false positives as a
/// function of the ToF trend window.
std::pair<double, double> tof_detection(std::size_t window, int trials,
                                        Rng& master) {
  MobilityClassifier::Config cfg;
  cfg.tof.trend_window = window;
  const double warmup = static_cast<double>(window) + 4.0;
  HitCounts macro, micro_fp;
  for (int trial = 0; trial < trials; ++trial) {
    // Controlled radial walks: the detector's design regime.
    count_seconds(make_radial_scenario(trial % 2 == 0,
                                       trial % 2 == 0 ? 30.0 : 8.0, master),
                  18.0, warmup, cfg, macro_mode, macro);
    count_seconds(make_scenario(MobilityClass::kMicro, master), 25.0, warmup,
                  cfg, macro_mode, micro_fp);
  }
  return rates(macro, micro_fp);
}

}  // namespace

void run_fig1(runtime::Experiment& exp, runtime::BenchReport& report) {
  report.text += banner_text(
      "Figure 1 — CDF of std-dev of RSSI (5 s windows) per mobility type",
      "static ~0; environmental overlaps device mobility, so RSSI "
      "cannot separate environmental from device motion");
  report.text += sequential_text(exp, [](Rng& master) {
    const int trials = 12;
    const SampleSet static_s =
        rssi_stddevs(MobilityClass::kStatic, trials, master);
    Rng env_rng = master.split();
    SampleSet env_s;
    for (int trial = 0; trial < trials; ++trial)
      add_rssi_stddevs(
          make_environmental_scenario(EnvironmentalActivity::kStrong, env_rng),
          env_s);
    const SampleSet micro_s =
        rssi_stddevs(MobilityClass::kMicro, trials, master);
    const SampleSet macro_s =
        rssi_stddevs(MobilityClass::kMacro, trials, master);

    std::string text =
        render_cdf_table("RSSI std-dev (dB) per mobility type",
                         {{"static", &static_s},
                          {"environmental", &env_s},
                          {"micro", &micro_s},
                          {"macro", &macro_s}});
    text += render_ascii_cdf("environmental", env_s);
    text += render_ascii_cdf("macro", macro_s);

    // Overlap check: fraction of environmental windows whose std-dev
    // exceeds the micro-mobility median — the paper's "often higher".
    const double overlap = 1.0 - env_s.cdf_at(micro_s.median());
    text += strf("\nShape check: static median %.2f dB (expected ~0); "
                 "%.0f%% of environmental windows exceed the micro median "
                 "(expected a substantial overlap)\n",
                 static_s.median(), 100.0 * overlap);
    return text;
  });
}

void run_fig2(runtime::Experiment& exp, runtime::BenchReport& report) {
  const int trials = 10;
  Rng master(exp.master_seed());

  // (a) similarity vs sampling period: one job per period row.
  report.text += banner_text(
      "Figure 2(a) — CSI similarity vs sampling period",
      "static stays ~1 at any period; device mobility drops fastest; "
      "environmental in between");
  {
    const double periods[] = {0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.3, 0.5};
    const std::vector<Rng> rows = split_rows(master, 8);
    const auto cells = exp.map<std::vector<std::string>>(
        8, [&](runtime::Trial& trial) {
          Rng row = rows[trial.index];
          const double period = periods[trial.index];
          std::vector<std::string> out{period_label(period)};
          for (const SampleSet& set : similarity_row(period, trials, row))
            out.push_back(TablePrinter::num(set.median(), 3));
          return out;
        });
    TablePrinter t("median CSI similarity vs sampling period");
    t.set_header({"period", "static", "env-weak", "env-strong", "micro",
                  "macro"});
    for (const auto& row : cells) t.add_row(row);
    report.text += t.render();
  }

  // (b) CDFs at tau = 0.5 s.
  report.text += banner_text(
      "Figure 2(b) — CDF of similarity of consecutive samples (0.5 s)",
      "static above Thr_sta=0.98; environmental between 0.7 and 0.98; "
      "device mobility below Thr_env=0.7");
  {
    report.text += exp.map<std::string>(1, [&](runtime::Trial&) {
      Rng row = master.split();
      const auto [st, ew, es, mi, ma] = similarity_row(0.5, trials, row);
      std::string text = render_cdf_table("CSI similarity at 0.5 s",
                                          {{"static", &st},
                                           {"env-weak", &ew},
                                           {"env-strong", &es},
                                           {"micro", &mi},
                                           {"macro", &ma}});
      text += strf("\nThreshold check: %.0f%% of static samples > 0.98 | "
                   "%.0f%% of env samples in (0.7, 0.98] | "
                   "%.0f%% of device samples <= 0.7\n",
                   100.0 * (1.0 - st.cdf_at(0.98)),
                   100.0 * (ew.cdf_at(0.98) - ew.cdf_at(0.7) +
                            es.cdf_at(0.98) - es.cdf_at(0.7)) /
                       2.0,
                   100.0 * (mi.cdf_at(0.7) + ma.cdf_at(0.7)) / 2.0);
      return text;
    })[0];
  }

  // (c) micro vs macro at fast sampling: one job per period row.
  report.text += banner_text(
      "Figure 2(c) — micro vs macro similarity at fast sampling",
      "the gap grows with faster sampling but the distributions "
      "still overlap: CSI alone cannot split micro from macro");
  {
    const double periods[] = {0.005, 0.010, 0.025};
    const std::vector<Rng> rows = split_rows(master, 3);
    const auto cells = exp.map<std::vector<std::string>>(
        3, [&](runtime::Trial& trial) {
          Rng row = rows[trial.index];
          const double period = periods[trial.index];
          const SampleSet mi = similarities(MobilityClass::kMicro,
                                            std::nullopt, period, trials, row);
          const SampleSet ma = similarities(MobilityClass::kMacro,
                                            std::nullopt, period, trials, row);
          // Overlap: fraction of micro samples below the macro p75 — a
          // misclassification proxy (paper: >5% even at 5 ms).
          const double overlap = mi.cdf_at(ma.quantile(0.75));
          return std::vector<std::string>{
              period_label(period), TablePrinter::num(mi.quantile(0.25), 3),
              TablePrinter::num(mi.median(), 3),
              TablePrinter::num(mi.quantile(0.75), 3),
              TablePrinter::num(ma.quantile(0.25), 3),
              TablePrinter::num(ma.median(), 3),
              TablePrinter::num(ma.quantile(0.75), 3),
              TablePrinter::pct(overlap)};
        });
    TablePrinter t("micro vs macro similarity quantiles");
    t.set_header({"period", "micro p25", "micro p50", "micro p75", "macro p25",
                  "macro p50", "macro p75", "overlap"});
    for (const auto& row : cells) t.add_row(row);
    report.text += t.render();
  }
}

void run_fig4(runtime::Experiment& exp, runtime::BenchReport& report) {
  report.text += banner_text(
      "Figure 4 — ToF over time under device mobility",
      "micro: random noise around a constant; macro (periodic "
      "toward/away walk): steady increasing/decreasing ramps");
  report.text += sequential_text(exp, [](Rng& master) {
    const auto series = [](const char* name, const std::vector<double>& xs) {
      std::string text =
          strf("%s (per-second ToF medians, clock cycles):\n  ", name);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        text += strf("%6.1f", xs[i]);
        if ((i + 1) % 12 == 0) text += "\n  ";
      }
      return text + "\n";
    };

    Scenario micro = make_scenario(MobilityClass::kMicro, master);
    const auto micro_medians = tof_median_series(micro, 60.0);
    std::string text = series("micro-mobility", micro_medians);
    text += strf("  span: %.1f cycles (expected: small, noise-dominated)\n\n",
                 SampleSet(micro_medians).max() -
                     SampleSet(micro_medians).min());

    Scenario macro = make_bounce_scenario(4.0, 28.0, master);
    const auto macro_medians = tof_median_series(macro, 60.0);
    text += series("macro-mobility (periodic toward/away)", macro_medians);

    // Monotone stretches of >= 4 s that also moved >= 3 cycles (the trend
    // the detector keys on) — flat quantized plateaus do not count.
    text += strf("\nShape check: monotone runs (>=4 s) — macro: %d, micro: %d "
                 "(expected: macro >> micro)\n",
                 fidelity::count_monotone_runs(macro_medians, 3, 3.0),
                 fidelity::count_monotone_runs(micro_medians, 3, 3.0));
    text += strf("macro true distance at t=0/15/30/45 s: %.1f / %.1f / %.1f / "
                 "%.1f m\n",
                 macro.channel->true_distance(0.0),
                 macro.channel->true_distance(15.0),
                 macro.channel->true_distance(30.0),
                 macro.channel->true_distance(45.0));
    return text;
  });
}

void run_fig6(runtime::Experiment& exp, runtime::BenchReport& report) {
  const int trials = 10;
  Rng master(exp.master_seed());
  // One job per table row; each row's draws come from its own split.
  const auto detection_table = [&](const char* title, const char* column,
                                   std::size_t n, auto label, auto detect) {
    const std::vector<Rng> rows = split_rows(master, n);
    const auto cells = exp.map<std::vector<std::string>>(
        n, [&](runtime::Trial& trial) {
          Rng row = rows[trial.index];
          const auto [acc, fp] = detect(trial.index, row);
          return std::vector<std::string>{label(trial.index),
                                          TablePrinter::pct(acc),
                                          TablePrinter::pct(fp)};
        });
    TablePrinter t(title);
    t.set_header({column, "accuracy", "false positives"});
    for (const auto& row : cells) t.add_row(row);
    return t.render();
  };

  report.text += banner_text(
      "Figure 6(a) — CSI-based device-motion detection vs sampling period",
      "accuracy low for very short periods (channel barely changes "
      "between samples), high by ~500 ms; false positives stay low");
  const double periods[] = {0.005, 0.01, 0.025, 0.05, 0.1, 0.5};
  report.text += detection_table(
      "device-mobility detection vs CSI sampling period", "period", 6,
      [&](std::size_t i) { return period_label(periods[i]); },
      [&](std::size_t i, Rng& row) {
        return csi_detection(periods[i], trials, row);
      });

  report.text += banner_text(
      "Figure 6(b) — macro detection vs ToF trend window",
      "longer windows more accurate (4 s ~ 98% in the paper) but "
      "slower to react; micro false positives stay low");
  const std::size_t windows[] = {2, 3, 4, 5, 6, 8};
  report.text += detection_table(
      "macro-mobility detection vs ToF window", "window", 6,
      [&](std::size_t i) { return strf("%zu s", windows[i]); },
      [&](std::size_t i, Rng& row) {
        return tof_detection(windows[i], trials, row);
      });
}

}  // namespace mobiwlan::benchsuite
