// perf.cpp — hot-path microbenchmarks for `mobiwlan-bench --perf`.
//
// The cases cover the per-packet pipeline the runtime loops execute
// millions of times per study — full channel sampling, bare CSI synthesis
// (fp64 and fp32 tiers), AoA, CSI similarity, one classifier CSI step —
// plus pool dispatch and one campus epoch. Each case exercises the
// scratch-buffer (zero-allocation) API that the steady-state loops use, so
// allocs_per_op doubles as a regression check on the allocation-free
// contract whenever the counting hook is linked (it is, in mobiwlan-bench).
//
// The workload construction is deliberately simple and self-contained so
// the numbers stay comparable across refactors: a strong-activity channel
// with a walking client, sampled at 1 kHz. ci/perf_baseline.json stores the
// gate values; ci/perf_gate.sh fails the build when a case regresses past
// the tolerance band.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "campus/campus.hpp"
#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "chan/trajectory.hpp"
#include "core/csi_similarity.hpp"
#include "core/mobility_classifier.hpp"
#include "phy/aoa.hpp"
#include "runtime/thread_pool.hpp"
#include "suite/suite.hpp"
#include "util/alloc_count.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace mobiwlan::benchsuite {
namespace {

using clock_type = std::chrono::steady_clock;

/// The shared perf workload: strong environmental activity plus a client
/// walking away from the AP at 1.2 m/s — every mobility signal active, so no
/// hot branch is skipped. Seeded off a dedicated stream, independent of the
/// experiment runner's job streams.
std::unique_ptr<WirelessChannel> perf_channel() {
  Rng master(20140204);
  Rng rng = master.stream(2001);
  ChannelConfig cfg;
  cfg.activity = EnvironmentalActivity::kStrong;
  auto traj =
      std::make_shared<LinearTrajectory>(Vec2{9.0, 0.0}, Vec2{1.0, 0.4}, 1.2);
  return std::make_unique<WirelessChannel>(cfg, Vec2{0.0, 0.0},
                                           std::move(traj), rng.split());
}

/// Repeats `body` in 256-op batches until `min_time_s` elapses (after a
/// 64-op warmup that also populates any scratch buffers), then reports
/// mean ns/op and allocs/op over the timed region.
template <typename Body>
PerfResult measure(const char* name, double min_time_s, Body body) {
  for (int i = 0; i < 64; ++i) body();
  std::uint64_t iters = 0;
  const std::uint64_t allocs0 = alloc_count();
  const auto t0 = clock_type::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 256; ++i) body();
    iters += 256;
    elapsed = std::chrono::duration<double>(clock_type::now() - t0).count();
  } while (elapsed < min_time_s);
  const std::uint64_t allocs1 = alloc_count();

  PerfResult r;
  r.name = name;
  r.ns_per_op = 1e9 * elapsed / static_cast<double>(iters);
  r.ops_per_sec = static_cast<double>(iters) / elapsed;
  r.allocs_per_op =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(iters);
  return r;
}

PerfResult run_channel_sample(double min_time_s) {
  auto ch = perf_channel();
  ChannelBatch::Scratch scratch;
  ChannelSample s;
  double t = 0.0;
  return measure("channel_sample", min_time_s, [&] {
    ChannelBatch::sample_link(*ch, t, s, scratch);
    t += 0.001;
    asm volatile("" : : "r"(&s) : "memory");
  });
}

/// Restores the forced precision tier on scope exit (the fp32 cases must
/// not leak their override into later cases or the gate run).
struct PrecisionGuard {
  explicit PrecisionGuard(int precision) {
    simd::set_forced_precision(precision);
  }
  ~PrecisionGuard() { simd::set_forced_precision(-1); }
};

/// Noiseless synthesis (ChannelBatch::csi_true_link) at the paper's
/// 3x2x52 layout. `precision` pins the plane tier: 0 = fp64 (the default
/// contract), 1 = fp32 (error-bounded tier; see DESIGN.md §5).
PerfResult run_batch_synthesis_tier(const char* name, double min_time_s,
                                    int precision) {
  PrecisionGuard guard(precision);
  auto ch = perf_channel();
  ChannelBatch::Scratch scratch;
  CsiMatrix m;
  double t = 0.0;
  return measure(name, min_time_s, [&] {
    ChannelBatch::csi_true_link(*ch, t, m, scratch);
    t += 0.001;
    asm volatile("" : : "r"(&m) : "memory");
  });
}

PerfResult run_batch_synthesis(double min_time_s) {
  return run_batch_synthesis_tier("batch_synthesis", min_time_s, 0);
}

PerfResult run_batch_synthesis_f32(double min_time_s) {
  return run_batch_synthesis_tier("batch_synthesis_f32", min_time_s, 1);
}

PerfResult run_aoa_sweep(double min_time_s) {
  // One full 181-point beamscan over a fixed CSI snapshot — the estimator
  // the localization fusion path calls per serving-AP observation. Holds
  // the steering-vector hoist honest: the per-grid-point work must stay
  // one complex multiply-accumulate per (tx, rx, subcarrier), not a
  // std::polar in the inner loop.
  auto ch = perf_channel();
  const CsiMatrix csi = ch->csi_at(0.0);
  return measure("aoa_sweep", min_time_s, [&] {
    AoaEstimate est = estimate_aoa(csi);
    asm volatile("" : : "r"(&est) : "memory");
  });
}

PerfResult run_csi_similarity(double min_time_s) {
  auto ch = perf_channel();
  const CsiMatrix a = ch->csi_at(0.0);
  const CsiMatrix b = ch->csi_at(0.5);
  CsiSimilarityScratch scratch;
  return measure("csi_similarity", min_time_s, [&] {
    double s = csi_similarity(a, b, scratch);
    asm volatile("" : : "r"(&s) : "memory");
  });
}

PerfResult run_classifier_csi_step(double min_time_s) {
  auto ch = perf_channel();
  std::vector<CsiMatrix> samples;
  samples.reserve(64);
  for (int i = 0; i < 64; ++i) samples.push_back(ch->csi_at(i * 0.5));
  MobilityClassifier clf;
  double t = 0.0;
  std::size_t i = 0;
  return measure("classifier_csi_step", min_time_s, [&] {
    clf.on_csi(t, samples[i % samples.size()]);
    t += 0.5;
    ++i;
  });
}

PerfResult run_pool_post_many(double min_time_s) {
  // Dispatch overhead of the batched enqueue: one op = post_many() of 64
  // no-op tasks (one lock + one notify_all) plus the completion wait. The
  // tasks capture 16 bytes, so they ride the TaskFn inline buffer — the
  // allocs/op column proves the queue itself is the only allocator (one
  // node per task from std::queue, nothing per-submit).
  runtime::ThreadPool pool(1);
  constexpr std::size_t kTasks = 64;
  std::atomic<std::size_t> remaining{0};
  std::mutex mu;
  std::condition_variable done;
  return measure("pool_post_many", min_time_s, [&] {
    remaining.store(kTasks, std::memory_order_relaxed);
    pool.post_many(kTasks, [&](std::size_t) {
      return runtime::TaskFn([&] {
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard<std::mutex> lock(mu);
          done.notify_one();
        }
      });
    });
    std::unique_lock<std::mutex> lock(mu);
    done.wait(lock, [&] {
      return remaining.load(std::memory_order_acquire) == 0;
    });
  });
}

PerfResult run_campus_step(double min_time_s) {
  // A steady-state campus shard step: 512 resident sessions on an 8x8 grid
  // over 4 shards, all arrived at epoch 1 and none departing within the
  // measured horizon. The hysteresis is pinned high so no session
  // re-associates mid-measurement — the case times the shard step loop
  // (batch rebuild + batched sample + per-session step + mailbox sweep),
  // not channel re-construction, and its allocs/op column gates the
  // zero-allocation contract of that loop.
  campus::CampusConfig cfg = campus::campus_default_config();
  cfg.cols = 8;
  cfg.rows = 8;
  cfg.shards = 4;
  cfg.jobs = 1;
  cfg.n_sessions = 512;
  cfg.arrival_window_epochs = 1;
  cfg.min_dwell_epochs = 100000;
  cfg.mean_extra_dwell_epochs = 0.0;
  cfg.max_dwell_epochs = 100000;
  cfg.horizon_epochs = 200000;
  cfg.session.handover_hysteresis_m = 1e9;
  campus::CampusSim sim(cfg);
  sim.step_epoch();  // admits (and primes) every session
  return measure("campus_step", min_time_s, [&] { sim.step_epoch(); });
}

}  // namespace

const std::vector<PerfCaseDef>& perf_registry() {
  static const std::vector<PerfCaseDef> cases = {
      {"channel_sample",
       "full ChannelSample (geometry+CSI+noise) via sample_link",
       run_channel_sample},
      {"batch_synthesis",
       "noiseless 3x2x52 CSI synthesis via csi_true_link (fp64 tier)",
       run_batch_synthesis},
      {"batch_synthesis_f32",
       "noiseless 3x2x52 CSI synthesis via csi_true_link (fp32 tier)",
       run_batch_synthesis_f32},
      {"aoa_sweep", "181-point beamscan AoA estimate on a fixed CSI snapshot",
       run_aoa_sweep},
      {"csi_similarity", "4-pair Pearson CSI similarity with scratch buffers",
       run_csi_similarity},
      {"classifier_csi_step", "MobilityClassifier::on_csi steady-state step",
       run_classifier_csi_step},
      {"pool_post_many", "64-task batched enqueue + drain on a 1-worker pool",
       run_pool_post_many},
      {"campus_step", "one campus epoch: 512 resident sessions on 4 shards",
       run_campus_step},
  };
  return cases;
}

}  // namespace mobiwlan::benchsuite
