#include "suite/suite.hpp"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <thread>

#include "runtime/thread_pool.hpp"

namespace mobiwlan::benchsuite {

const std::vector<BenchDef>& registry() {
  static const std::vector<BenchDef> benches = {
      table1_bench(),
      fig9_bench(),
      fig13_bench(),
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

int run_standalone(const std::string& name) {
  for (const BenchDef& def : registry()) {
    if (def.name != name) continue;
    const unsigned hw = std::thread::hardware_concurrency();
    runtime::ThreadPool pool(hw ? hw : 1);
    runtime::BenchReport report;
    report.name = def.name;
    report.description = def.description;
    runtime::Experiment exp(pool, runtime::kMasterSeed, &report);
    const auto start = std::chrono::steady_clock::now();
    def.run(exp, report);
    report.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::fputs(report.text.c_str(), stdout);
    std::printf("\n[%s: %zu jobs on %zu workers, %.2fs wall, %.0f%% "
                "utilization]\n",
                def.name.c_str(), report.jobs.size(), report.workers,
                report.wall_s, 100.0 * report.worker_utilization());
    return 0;
  }
  std::fprintf(stderr, "unknown bench: %s\n", name.c_str());
  return 1;
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

}  // namespace mobiwlan::benchsuite
