// perf.cpp — hot-path microbenchmarks for `mobiwlan-bench --perf`.
//
// The cases cover the per-packet pipeline the runtime loops execute
// millions of times per study — full channel sampling, bare CSI synthesis
// (fp64 and fp32 tiers), AoA, CSI similarity, one classifier CSI step, the
// A-MPDU loss kernel — plus pool dispatch, one campus epoch, the strict
// replay of a recorded link, one batched pass over a 512-link floor and the
// paired fp32-vs-fp64 wideband synthesis ratio. Each case exercises the
// scratch-buffer (zero-allocation) API that the steady-state loops use, so
// allocs_per_op doubles as a regression check on the allocation-free
// contract whenever the counting hook is linked (it is, in mobiwlan-bench).
// Two more cases add no measurement of their own: they run the campus and
// loc gated suites once and read ns/op off the suites' timing keys (the
// campus session-step rate and the loc lookup rate).
//
// The workload construction is deliberately simple and self-contained so
// the numbers stay comparable across refactors: a strong-activity channel
// with a walking client, sampled at 1 kHz. ci/perf_baseline.json stores the
// gate values; `mobiwlan-bench --perf --check` (the last step of
// ci/check.sh) fails when a case regresses past the tolerance band.
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numbers>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "campus/campus.hpp"
#include "chan/channel.hpp"
#include "chan/channel_batch.hpp"
#include "chan/scenario.hpp"
#include "chan/trajectory.hpp"
#include "core/csi_similarity.hpp"
#include "core/mobility_classifier.hpp"
#include "fidelity/fidelity.hpp"
#include "mac/aggregation.hpp"
#include "mac/atheros_ra.hpp"
#include "mac/link_sim.hpp"
#include "phy/aoa.hpp"
#include "runtime/experiment.hpp"
#include "runtime/thread_pool.hpp"
#include "suite/suite.hpp"
#include "trace/source.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"
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

PerfResult run_ampdu_errors(double min_time_s) {
  // One full A-MPDU through the loss kernel: 64 MPDUs of 1500 B at MCS 12
  // on a channel that decorrelated by 2% over the frame, so every MPDU
  // ages differently and none takes the flat-frame path. The SNR sweeps
  // 15-30 dB to cover both the waterfall and the error floor.
  MpduErrors out;
  const McsEntry& entry = mcs(12);
  int k = 0;
  return measure("ampdu_errors", min_time_s, [&] {
    const double snr_db = 15.0 + static_cast<double>(k++ % 16);
    ampdu_mpdu_errors(entry, snr_db, 0.02, kMaxAmpduMpdus, 1500, {}, out);
    asm volatile("" : : "r"(&out) : "memory");
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

/// Issues the read a trace record logs, against `src`, at the record's
/// time; returns the value read (0 for an absent or matrix read).
double replay_read(trace::ObservableSource& src, const trace::TraceRecord& q,
                   CsiMatrix& csi) {
  using trace::StreamKind;
  std::optional<double> v;
  switch (q.kind) {
    case StreamKind::kCsi: return src.csi(q.unit, q.t, csi) ? 1.0 : 0.0;
    case StreamKind::kCsiFeedback:
      return src.csi_feedback(q.unit, q.t, csi) ? 1.0 : 0.0;
    case StreamKind::kTrueCsi: return src.csi_true(q.unit, q.t, csi) ? 1.0 : 0.0;
    case StreamKind::kRssi: v = src.rssi_dbm(q.unit, q.t); break;
    case StreamKind::kScanRssi: v = src.scan_rssi_dbm(q.unit, q.t); break;
    case StreamKind::kTof: v = src.tof_cycles(q.unit, q.t); break;
    case StreamKind::kSnr: v = src.snr_db(q.unit, q.t); break;
    case StreamKind::kTrueDistance: v = src.true_distance(q.unit, q.t); break;
    case StreamKind::kFeedbackOk:
      return src.feedback_delivered(q.unit, q.t) ? 1.0 : 0.0;
  }
  return v.value_or(0.0);
}

PerfResult run_trace_replay(double min_time_s) {
  // One op = the strict replay of a recorded 1 s link (mobility-aware
  // Atheros RA over a walking client): every read the link loop made, issued
  // again in recorded order against a TraceSource rewound to the start. The
  // source keeps its decode buffers across rewinds, so allocs/op gates the
  // allocation-free replay contract.
  const std::string path =
      "BENCH_trace_tmp_" + std::to_string(::getpid()) + "_perf_replay.mwtr";
  {
    Rng rng(20140204);
    Scenario s = make_scenario(MobilityClass::kMacro, rng);
    trace::LiveChannelSource live(*s.channel);
    trace::TraceWriter writer(
        path, trace::RecordingSource::header_for(live, ChannelConfig{}));
    trace::RecordingSource tee(live, writer);
    AtherosRa ra = make_mobility_aware_atheros_ra();
    LinkSimConfig cfg;
    cfg.duration_s = 1.0;
    Rng sim_rng(20140205);
    (void)simulate_link(tee, ra, cfg, sim_rng, s.truth);
    writer.close();
  }
  std::vector<trace::TraceRecord> reads;
  {
    trace::TraceReader reader(path);
    trace::TraceRecord rec;
    while (reader.next(rec)) {
      rec.csi = CsiMatrix();  // only the query (kind, unit, t) is replayed
      reads.push_back(rec);
    }
  }
  trace::TraceSource replay(path);  // strict: any divergence throws
  CsiMatrix csi;
  PerfResult r = measure("trace_replay", min_time_s, [&] {
    replay.rewind();
    double sink = 0.0;
    for (const trace::TraceRecord& q : reads) sink += replay_read(replay, q, csi);
    asm volatile("" : : "r"(&sink) : "memory");
  });
  std::remove(path.c_str());
  return r;
}

PerfResult run_scale_sample(double min_time_s) {
  // One op = a single-thread sample_range pass over a 512-link floor: 64
  // APs on an 8x8 grid at 30 m pitch, each serving 8 clients that start
  // within 12 m of it and walk off at 1.2 m/s on a random heading, strong
  // and weak activity alternating. The links are built through an
  // Experiment at the default master seed (chunk-keyed substreams, grain
  // 64), so the floor is the same on every host and pool size.
  constexpr std::size_t kApsPerSide = 8;
  constexpr std::size_t kNumAps = kApsPerSide * kApsPerSide;
  constexpr std::size_t kNumLinks = 512;
  constexpr double kApPitchM = 30.0;
  std::vector<std::unique_ptr<WirelessChannel>> channels(kNumLinks);
  {
    runtime::ThreadPool pool(1);
    runtime::Experiment exp(pool, runtime::kMasterSeed);
    exp.shard(kNumLinks, 64,
              [&](std::size_t begin, std::size_t end, Rng& rng) {
                for (std::size_t i = begin; i < end; ++i) {
                  const std::size_t ap = i % kNumAps;
                  const Vec2 ap_pos{
                      static_cast<double>(ap % kApsPerSide) * kApPitchM,
                      static_cast<double>(ap / kApsPerSide) * kApPitchM};
                  ChannelConfig cfg;
                  cfg.activity = (i % 2 == 0) ? EnvironmentalActivity::kStrong
                                              : EnvironmentalActivity::kWeak;
                  const Vec2 start{ap_pos.x + rng.uniform(-12.0, 12.0),
                                   ap_pos.y + rng.uniform(-12.0, 12.0)};
                  const double heading =
                      rng.uniform(0.0, 2.0 * std::numbers::pi);
                  auto traj = std::make_shared<LinearTrajectory>(
                      start, Vec2{std::cos(heading), std::sin(heading)}, 1.2);
                  channels[i] = std::make_unique<WirelessChannel>(
                      cfg, ap_pos, std::move(traj), rng.split());
                }
              });
  }
  ChannelBatch batch;
  for (auto& ch : channels) batch.add_link(ch.get());
  ChannelBatch::Scratch scratch;
  std::vector<ChannelSample> out(kNumLinks);
  double t = 10.0;
  return measure("scale_sample", min_time_s, [&] {
    batch.sample_range(t, 0, kNumLinks, out.data(), scratch);
    t += 0.001;
    asm volatile("" : : "r"(out.data()) : "memory");
  });
}

PerfResult run_f32_wideband_synthesis(double min_time_s) {
  // The fp32-vs-fp64 synthesis (csi_true_link) ratio at the active SIMD
  // tier, on a wideband (242-subcarrier) link where the synthesis kernels,
  // not the per-path scalar prep, dominate. The two precisions run
  // interleaved in 256-op blocks, each after an untimed 32-op block that
  // repopulates the caches post-switch, and the ratio comes from the summed
  // times: background-load drift on a shared host hits both sides instead
  // of skewing whichever ran second. ns/op and allocs/op are the fp32
  // side's.
  Rng master(runtime::kMasterSeed);
  Rng rng = master.stream(7001);
  ChannelConfig cfg;
  cfg.n_subcarriers = 242;
  cfg.activity = EnvironmentalActivity::kWeak;
  auto traj =
      std::make_shared<LinearTrajectory>(Vec2{9.0, 0.0}, Vec2{1.0, 0.4}, 1.2);
  auto ch = std::make_unique<WirelessChannel>(cfg, Vec2{0.0, 0.0},
                                              std::move(traj), rng.split());
  ChannelBatch::Scratch scratch;
  CsiMatrix m;
  PrecisionGuard guard(0);
  double t = 0.1;
  const auto block = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      ChannelBatch::csi_true_link(*ch, t, m, scratch);
      t += 1e-4;
    }
  };
  for (int i = 0; i < 64; ++i) {  // size both precision tiers' planes
    simd::set_forced_precision(i & 1);
    block(1);
  }
  double t64 = 0.0, t32 = 0.0;
  std::uint64_t ops = 0, allocs32 = 0;
  do {
    for (int precision = 0; precision < 2; ++precision) {
      simd::set_forced_precision(precision);
      block(32);
      const std::uint64_t allocs0 = alloc_count();
      const auto t0 = clock_type::now();
      block(256);
      const double dt =
          std::chrono::duration<double>(clock_type::now() - t0).count();
      (precision == 0 ? t64 : t32) += dt;
      if (precision == 1) allocs32 += alloc_count() - allocs0;
    }
    ops += 256;
  } while (t64 + t32 < min_time_s);

  PerfResult r;
  r.name = "f32_wideband_synthesis";
  r.ns_per_op = 1e9 * t32 / static_cast<double>(ops);
  r.ops_per_sec = static_cast<double>(ops) / t32;
  r.allocs_per_op =
      static_cast<double>(allocs32) / static_cast<double>(ops);
  r.speedup = t64 / t32;
  return r;
}

/// A case read off one run of a gated suite body, at the master seed on one
/// worker per hardware thread, as `--suite NAME` runs it: the suite runs
/// once, whatever `min_time_s`, and ns/op is `ns_per_op` of its report (a
/// missing key reads NaN, which no ns gate passes). allocs/op reads 0.
PerfResult suite_case(
    const char* name,
    fidelity::FidelityReport (*suite)(runtime::Experiment&),
    double (*ns_per_op)(const fidelity::FidelityReport&)) {
  const unsigned hw = std::thread::hardware_concurrency();
  runtime::ThreadPool pool(hw ? hw : 1);
  runtime::Experiment exp(pool, runtime::kMasterSeed);
  PerfResult r;
  r.name = name;
  r.ns_per_op = ns_per_op(suite(exp));
  r.ops_per_sec = 1e9 / r.ns_per_op;
  return r;
}

double key(const fidelity::FidelityReport& rep, const char* id) {
  return rep.value(id).value_or(std::nan(""));
}

PerfResult run_campus_matrix(double) {
  // Per session-step at the median wall of the four matrix runs, each the
  // same campus.steps workload: one descheduled run cannot flip the verdict.
  return suite_case("campus_matrix", run_campus_report, [](const auto& rep) {
    return 1e9 * key(rep, "timing.median_wall_s") / key(rep, "campus.steps");
  });
}

PerfResult run_loc_lookup(double) {
  // Per single-thread lookup against the 10^4-cell database.
  return suite_case("loc_lookup", run_loc_report, [](const auto& rep) {
    return 1e9 / key(rep, "timing_loc_lookups_per_s");
  });
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
      {"ampdu_errors",
       "A-MPDU loss kernel: one aged 64-MPDU frame priced per MPDU",
       run_ampdu_errors},
      {"pool_post_many", "64-task batched enqueue + drain on a 1-worker pool",
       run_pool_post_many},
      {"campus_step", "one campus epoch: 512 resident sessions on 4 shards",
       run_campus_step},
      {"trace_replay",
       "strict TraceSource replay of every read of a recorded 1 s link",
       run_trace_replay},
      {"scale_sample",
       "single-thread sample_range pass over a 64-AP x 512-link floor",
       run_scale_sample},
      {"f32_wideband_synthesis",
       "paired fp64/fp32 242-subcarrier synthesis (speedup = f64/f32 time)",
       run_f32_wideband_synthesis},
      {"campus_matrix",
       "one campus suite run: ns per session-step at its median run wall",
       run_campus_matrix},
      {"loc_lookup",
       "one loc suite run: ns per single-thread fingerprint lookup",
       run_loc_lookup},
  };
  return cases;
}

}  // namespace mobiwlan::benchsuite
