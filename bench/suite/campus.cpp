// Campus shard-invariance suite (`mobiwlan-bench --suite campus`): the
// partitioning-determinism gate for the campus-scale simulation
// (src/campus/). One scenario — a 32x32 AP grid (1024 APs) absorbing 100k
// client sessions over an 80-epoch arrival window, everyone departed by the
// 130-epoch horizon — is run under four partitionings:
//
//      1 shard  x J workers      (the unsharded reference)
//      4 shards x J workers
//     16 shards x J workers
//     16 shards x 1 worker       (the scheduling cross-check)
//
// and every shard-invariant observable — the aggregate counters, per-mode
// step counts, bitwise float sums, the per-session FNV digest combiners and
// the histogram quantiles — must agree exactly across all four runs. The
// mismatch count is a gated metric (campus.invariance_mismatches, bound
// 0 == 0), so the committed baseline fails the build the moment any
// partitioning detail leaks into a session observable.
//
// Partition-variant transport counters (handover messages, deferred
// handovers, mailbox high-water depth) are reported per shard count. They
// are deterministic for a fixed seed at any worker count — handovers are
// staged into per-(src,dst) SPSC lanes and drained at an epoch barrier — so
// they are exact-gated too, and the whole report survives the jobs-1-vs-8
// byte diff (ctest `campus_jobs_diff`). Keys matching `"timing` carry
// wall-clock rates and are quarantined by the usual convention.
//
// Precision is pinned to fp64 for the whole matrix; the SIMD *tier* is not:
// the anchored classifier pass and the elementwise batched kernels make the
// campus digests bitwise tier-invariant (gated by the campus tier-invariance
// test), so the committed baseline is host-portable while the throughput
// numbers reflect the host's real tier — which is what the campus
// throughput gate (the `campus_matrix` case of `--perf --check`) measures.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "campus/campus.hpp"
#include "fidelity/fidelity.hpp"
#include "suite/suite.hpp"
#include "util/simd.hpp"

namespace mobiwlan::benchsuite {
namespace {

using fidelity::FidelityReport;

/// MobilityMode ordinals, in enum order (core/mobility_mode.hpp).
constexpr const char* kModeNames[campus::kModeCount] = {
    "static", "environmental", "micro",
    "macro_toward", "macro_away", "macro_orbit"};

struct CampusRun {
  std::size_t shards = 0;
  std::size_t jobs = 0;
  campus::CampusAggregate agg;
  std::uint64_t arrived = 0;
  std::uint64_t departed = 0;
  std::uint64_t active_end = 0;
  std::uint64_t handovers = 0;
  std::uint64_t deferred = 0;
  std::uint64_t mailbox_depth = 0;
  std::uint64_t pool_sessions = 0;  ///< peak resident (slab-constructed)
  std::uint64_t hot_allocs = 0;
  double wall_s = 0.0;
};

/// Process peak resident set (VmHWM) in MiB, or 0 where /proc is absent.
/// RSS is inherently nondeterministic (allocator, page reuse across the
/// matrix), so everything derived from it reports under `timing.` keys —
/// quarantined from both the baseline gate and the jobs byte-diff.
double peak_rss_mb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

CampusRun run_one(std::size_t shards, std::size_t jobs, std::uint64_t seed,
                  std::uint64_t n_sessions_override = 0) {
  campus::CampusConfig cfg = campus::campus_default_config();
  cfg.shards = shards;
  cfg.jobs = jobs;
  cfg.master_seed = seed;
  if (n_sessions_override) cfg.n_sessions = n_sessions_override;
  const auto start = std::chrono::steady_clock::now();
  campus::CampusSim sim(cfg);
  sim.run();
  CampusRun r;
  r.shards = shards;
  r.jobs = jobs;
  r.agg = sim.aggregate();
  r.arrived = sim.arrived();
  r.departed = sim.departed();
  r.active_end = sim.active();
  r.handovers = sim.handovers_sent();
  r.deferred = sim.deferred_handovers();
  r.mailbox_depth = sim.mailbox_max_depth();
  r.pool_sessions = sim.pool_sessions();
  r.hot_allocs = sim.hot_phase_allocs();
  r.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return r;
}

int count_if_differs(bool differs) { return differs ? 1 : 0; }

/// Field-by-field comparison of everything the determinism contract says
/// must not depend on the partitioning. Floats compare with !=, not within
/// a tolerance: the campus folds departures in ascending session-id order
/// on purpose, so the sums are bitwise reproducible.
int invariance_mismatches(const CampusRun& a, const CampusRun& b) {
  const campus::CampusAggregate& x = a.agg;
  const campus::CampusAggregate& y = b.agg;
  int m = 0;
  m += count_if_differs(x.sessions != y.sessions);
  m += count_if_differs(x.steps != y.steps);
  m += count_if_differs(x.mac_steps != y.mac_steps);
  m += count_if_differs(x.mpdus_sent != y.mpdus_sent);
  m += count_if_differs(x.mpdus_failed != y.mpdus_failed);
  m += count_if_differs(x.ap_handovers != y.ap_handovers);
  for (std::size_t i = 0; i < campus::kModeCount; ++i)
    m += count_if_differs(x.mode_steps[i] != y.mode_steps[i]);
  m += count_if_differs(x.sum_mean_rssi_dbm != y.sum_mean_rssi_dbm);
  m += count_if_differs(x.sum_mean_similarity != y.sum_mean_similarity);
  m += count_if_differs(x.sum_mean_goodput_mbps != y.sum_mean_goodput_mbps);
  m += count_if_differs(x.sum_dwell_epochs != y.sum_dwell_epochs);
  m += count_if_differs(x.digest_xor != y.digest_xor);
  m += count_if_differs(x.digest_sum != y.digest_sum);
  m += count_if_differs(x.rssi_hist.total() != y.rssi_hist.total());
  m += count_if_differs(x.dwell_hist.total() != y.dwell_hist.total());
  m += count_if_differs(x.similarity_hist.total() != y.similarity_hist.total());
  for (const double q : {0.5, 0.9}) {
    m += count_if_differs(x.rssi_hist.quantile(q) != y.rssi_hist.quantile(q));
    m += count_if_differs(x.dwell_hist.quantile(q) != y.dwell_hist.quantile(q));
    m += count_if_differs(x.similarity_hist.quantile(q) !=
                          y.similarity_hist.quantile(q));
  }
  m += count_if_differs(a.arrived != b.arrived);
  m += count_if_differs(a.departed != b.departed);
  m += count_if_differs(a.active_end != b.active_end);
  // Peak resident sessions drives slab growth; arrivals and dwell times are
  // id-determined, so the peak must not depend on the partitioning either.
  m += count_if_differs(a.pool_sessions != b.pool_sessions);
  return m;
}

/// uint64 values (the FNV digests) do not fit a double exactly, so they are
/// reported as two exact 32-bit halves.
void add_u64_split(FidelityReport& rep, const std::string& key,
                   std::uint64_t v) {
  rep.add(key + "_hi", static_cast<double>(v >> 32));
  rep.add(key + "_lo", static_cast<double>(v & 0xffffffffULL));
}

}  // namespace

FidelityReport run_campus_large_report(runtime::Experiment& exp,
                                       std::uint64_t sessions,
                                       double rss_budget_mb, bool& ok) {
  // Large-campus mode: one {4 shards, jobs} run at the requested session
  // count. The streamed arrival schedule and the slab pool keep memory
  // proportional to PEAK RESIDENT sessions, not total sessions, so a
  // million-session day fits a fixed budget; this mode produces the
  // evidence (and the opt-in 250k ctest smoke gets its assertions).
  const std::size_t jobs = exp.pool().size();
  const std::uint64_t seed = exp.master_seed();
  const campus::CampusConfig defaults = campus::campus_default_config();
  std::printf("campus-large: %zux%zu APs, %llu sessions over %llu epochs "
              "(4 shards, seed %llu, %zu workers)\n",
              defaults.cols, defaults.rows,
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(defaults.horizon_epochs),
              static_cast<unsigned long long>(seed), jobs);
  const CampusRun r = run_one(4, jobs, seed, sessions);
  const double rss_mb = peak_rss_mb();
  const double bytes_per =
      r.pool_sessions ? rss_mb * 1024.0 * 1024.0 /
                            static_cast<double>(r.pool_sessions)
                      : 0.0;
  std::printf("  arrived %llu, departed %llu, active %llu — peak resident "
              "%llu (%.1f%% of total)\n",
              static_cast<unsigned long long>(r.arrived),
              static_cast<unsigned long long>(r.departed),
              static_cast<unsigned long long>(r.active_end),
              static_cast<unsigned long long>(r.pool_sessions),
              100.0 * static_cast<double>(r.pool_sessions) /
                  static_cast<double>(sessions));
  std::printf("  wall %.2fs (%.0f session-steps/s), peak RSS %.1f MiB "
              "(%.0f bytes/resident session), hot-phase allocs %llu\n",
              r.wall_s,
              r.wall_s > 0.0 ? static_cast<double>(r.agg.steps) / r.wall_s
                             : 0.0,
              rss_mb, bytes_per,
              static_cast<unsigned long long>(r.hot_allocs));
  ok = true;
  if (r.arrived != sessions || r.arrived != r.departed + r.active_end ||
      r.agg.sessions != r.departed) {
    std::fprintf(stderr, "mobiwlan-bench: campus-large conservation "
                         "FAILED (arrived/departed/active inconsistent)\n");
    ok = false;
  }
  if (rss_budget_mb > 0.0 && rss_mb > rss_budget_mb) {
    std::fprintf(stderr,
                 "mobiwlan-bench: campus-large peak RSS %.1f MiB exceeds "
                 "budget %.1f MiB\n",
                 rss_mb, rss_budget_mb);
    ok = false;
  }
  FidelityReport rep;
  rep.add("campus_large.sessions", static_cast<double>(sessions));
  rep.add("campus_large.peak_resident", static_cast<double>(r.pool_sessions));
  rep.add("campus_large.steps", static_cast<double>(r.agg.steps));
  rep.add("campus_large.handovers", static_cast<double>(r.handovers));
  rep.add("timing.wall_s", r.wall_s);
  if (r.wall_s > 0.0)
    rep.add("timing.session_steps_per_s",
            static_cast<double>(r.agg.steps) / r.wall_s);
  rep.add("timing.peak_rss_mb", rss_mb);
  rep.add("timing.bytes_per_session", bytes_per);
  return rep;
}

FidelityReport run_campus_report(runtime::Experiment& exp) {
  const std::size_t jobs = exp.pool().size();
  const std::uint64_t seed = exp.master_seed();
  // Pin the precision tier (fp32 CSI would change bits); the SIMD tier
  // runs at the host's native width — the digests are tier-invariant.
  simd::set_forced_precision(0);

  const struct {
    std::size_t shards;
    std::size_t jobs;
  } parts[] = {{1, jobs}, {4, jobs}, {16, jobs}, {16, 1}};
  CampusRun runs[4];
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    runs[i] = run_one(parts[i].shards, parts[i].jobs, seed);
    std::printf("  %2zu shards x %zu workers: %llu arrived, %llu departed, "
                "%llu handovers (%llu deferred, depth %llu), %.2fs\n",
                runs[i].shards, runs[i].jobs,
                static_cast<unsigned long long>(runs[i].arrived),
                static_cast<unsigned long long>(runs[i].departed),
                static_cast<unsigned long long>(runs[i].handovers),
                static_cast<unsigned long long>(runs[i].deferred),
                static_cast<unsigned long long>(runs[i].mailbox_depth),
                runs[i].wall_s);
  }
  simd::set_forced_precision(-1);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  int invariance = 0;
  for (int i = 1; i < 4; ++i)
    invariance += invariance_mismatches(runs[0], runs[i]);
  // runs[2] vs runs[3] share the partitioning and differ only in worker
  // count, so even the partition-variant transport counters must agree.
  int transport = 0;
  transport += count_if_differs(runs[2].handovers != runs[3].handovers);
  transport += count_if_differs(runs[2].deferred != runs[3].deferred);
  transport += count_if_differs(runs[2].mailbox_depth != runs[3].mailbox_depth);
  std::printf("  invariance: %d mismatches across the matrix, %d transport "
              "mismatches across worker counts\n",
              invariance, transport);

  FidelityReport rep;
  rep.add("campus.invariance_mismatches", invariance);
  rep.add("campus.jobs_transport_mismatches", transport);

  const campus::CampusAggregate& agg = runs[0].agg;
  rep.add("campus.sessions", static_cast<double>(agg.sessions));
  rep.add("campus.arrived", static_cast<double>(runs[0].arrived));
  rep.add("campus.departed", static_cast<double>(runs[0].departed));
  rep.add("campus.active_end", static_cast<double>(runs[0].active_end));
  rep.add("campus.steps", static_cast<double>(agg.steps));
  rep.add("campus.mac_steps", static_cast<double>(agg.mac_steps));
  rep.add("campus.mpdus_sent", static_cast<double>(agg.mpdus_sent));
  rep.add("campus.mpdus_failed", static_cast<double>(agg.mpdus_failed));
  rep.add("campus.ap_handovers", static_cast<double>(agg.ap_handovers));
  for (std::size_t i = 0; i < campus::kModeCount; ++i)
    rep.add(std::string("campus.mode_steps.") + kModeNames[i],
            static_cast<double>(agg.mode_steps[i]));
  const double n =
      agg.sessions ? static_cast<double>(agg.sessions) : 1.0;
  rep.add("campus.mean_rssi_dbm", agg.sum_mean_rssi_dbm / n);
  rep.add("campus.mean_similarity", agg.sum_mean_similarity / n);
  rep.add("campus.mean_goodput_mbps", agg.sum_mean_goodput_mbps / n);
  rep.add("campus.mean_dwell_epochs", agg.sum_dwell_epochs / n);
  add_u64_split(rep, "campus.digest_xor", agg.digest_xor);
  add_u64_split(rep, "campus.digest_sum", agg.digest_sum);
  rep.add("campus.rssi_p50", agg.rssi_hist.quantile(0.5));
  rep.add("campus.rssi_p90", agg.rssi_hist.quantile(0.9));
  rep.add("campus.dwell_p50", agg.dwell_hist.quantile(0.5));
  rep.add("campus.dwell_p90", agg.dwell_hist.quantile(0.9));
  rep.add("campus.similarity_p50", agg.similarity_hist.quantile(0.5));
  rep.add("campus.similarity_sessions",
          static_cast<double>(agg.similarity_hist.total()));
  for (int i = 0; i < 3; ++i) {
    const std::string p =
        "campus.partition" + std::to_string(parts[i].shards);
    rep.add(p + ".handovers", static_cast<double>(runs[i].handovers));
    rep.add(p + ".deferred", static_cast<double>(runs[i].deferred));
    rep.add(p + ".mailbox_depth", static_cast<double>(runs[i].mailbox_depth));
  }
  // Peak resident sessions (slab high-water) is deterministic and
  // shard-invariant, so it is exact-gated. The fused-phase allocation
  // meter is per worker thread, so it is live in every run: summed over
  // all four shapes, it must stay 0.
  rep.add("campus.pool_sessions",
          static_cast<double>(runs[0].pool_sessions));
  std::uint64_t hot_allocs = 0;
  for (const CampusRun& r : runs) hot_allocs += r.hot_allocs;
  rep.add("campus.hot_allocs", static_cast<double>(hot_allocs));
  if (wall_s > 0.0) {
    double total_steps = 0.0;
    for (const CampusRun& r : runs) total_steps += static_cast<double>(r.agg.steps);
    rep.add("timing.session_steps_per_s", total_steps / wall_s);
  }
  for (int i = 0; i < 4; ++i)
    rep.add("timing.run" + std::to_string(i) + "_wall_s", runs[i].wall_s);
  {
    // Median run wall: the noise-robust basis for the `campus_matrix` perf
    // case (each run executes the same campus.steps workload).
    double w[4];
    for (int i = 0; i < 4; ++i) w[i] = runs[i].wall_s;
    std::sort(w, w + 4);
    rep.add("timing.median_wall_s", (w[1] + w[2]) / 2.0);
  }
  const double rss_mb = peak_rss_mb();
  if (rss_mb > 0.0 && runs[0].pool_sessions > 0) {
    rep.add("timing.peak_rss_mb", rss_mb);
    rep.add("timing.bytes_per_session",
            rss_mb * 1024.0 * 1024.0 /
                static_cast<double>(runs[0].pool_sessions));
  }
  return rep;
}

}  // namespace mobiwlan::benchsuite
