#include "suite/suite.hpp"

#include <cstdarg>
#include <cstdio>

namespace mobiwlan::benchsuite {

const std::vector<BenchDef>& registry() {
  static const std::vector<BenchDef> benches = {
      {"fig1", "RSSI std-dev CDFs per mobility type", run_fig1},
      {"fig2", "CSI similarity vs sampling period, thresholds, micro/macro",
       run_fig2},
      {"table1",
       "mobility classification accuracy (confusion matrix + macro heading)",
       run_table1},
      {"fig4", "ToF medians over time under micro and macro mobility",
       run_fig4},
      {"fig6", "detector sensitivity to CSI period and ToF trend window",
       run_fig6},
      {"fig7", "roaming: oracle gain per mode, three roaming schemes",
       run_fig7},
      {"fig8", "how long the optimal bit-rate holds, MCS series per mode",
       run_fig8},
      {"fig9",
       "rate adaptation: stock vs motion-aware, and five schemes head-to-head",
       run_fig9},
      {"fig10", "frame aggregation limit per mode, adaptive vs fixed",
       run_fig10},
      {"fig11", "SU beamforming feedback period, adaptive vs stock",
       run_fig11},
      {"fig12", "MU-MIMO feedback period, per-client adaptive vs stock",
       run_fig12},
      {"fig13",
       "end-to-end 6-AP floor walks: full mobility-aware suite vs stock stack",
       run_fig13},
      {"table2", "per-mode protocol parameters from core/policy.hpp",
       run_table2},
      {"ablation_aoa", "AoA orbit detector for the circular-walk limitation",
       run_ablation_aoa},
      {"ablation_substrate", "channel mechanisms vs classifier stages",
       run_ablation_substrate},
      {"ablation_roaming", "handoff cost: full scan vs 802.11r",
       run_ablation_roaming},
      {"ablation_width", "channel width and MIMO mode adaptation (null result)",
       run_ablation_width},
      {"ablation_uplink", "uplink RA fed by delayed mobility hints",
       run_ablation_uplink},
      {"ablation_latency", "MPDU delivery latency vs aggregation policy",
       run_ablation_latency},
      {"ablation_scheduler", "mobility-aware AP scheduling of two clients",
       run_ablation_scheduler},
  };
  return benches;
}

const std::vector<GatedSuiteDef>& gated_registry() {
  static const std::vector<GatedSuiteDef> suites = {
      {"fidelity", "paper-fidelity statistics: Table 1 / Fig 2 / Fig 4 / Fig 9",
       run_fidelity_report},
      {"fault", "graceful degradation under PHY-observable export loss",
       run_fault_report},
      {"trace", "record/replay determinism of every protocol loop + pitfalls",
       run_trace_report},
      {"campus", "1024-AP / 100k-session campus under 1/4/16 shards",
       run_campus_report},
      {"loc", "CSI-fingerprint localization + mobility-gated refresh",
       run_loc_report},
  };
  return suites;
}

std::string strf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string banner_text(const std::string& figure,
                        const std::string& expectation) {
  return strf("\n================================================================\n"
              "%s\nPaper: %s\n"
              "================================================================\n",
              figure.c_str(), expectation.c_str());
}

std::string sequential_text(runtime::Experiment& exp,
                            const std::function<std::string(Rng&)>& body) {
  const std::uint64_t seed = exp.master_seed();
  return exp.map<std::string>(1, [&](runtime::Trial&) {
    Rng master(seed);
    return body(master);
  })[0];
}

std::vector<Rng> split_rows(Rng& master, std::size_t count) {
  std::vector<Rng> rows;
  for (std::size_t i = 0; i < count; ++i) rows.push_back(master.split());
  return rows;
}

int class_index(MobilityClass c) {
  for (int i = 0; i < 4; ++i)
    if (kClasses[i] == c) return i;
  return 0;
}

}  // namespace mobiwlan::benchsuite
