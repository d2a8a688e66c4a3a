// loc-mixed: lookups against the 100x100-cell, 64-AP fingerprint database
// with mobility-gated refresh writes beside them.
//
// A query is begin_query + observe_ap per audible AP + locate over one of a
// pool of pre-synthesized per-AP observation sets at random positions. Each
// pool entry is one client, static or mobile; its MobilityGate refreshes the
// client's registration cell at most once per second of client time, and a
// client queries every 0.5 s, so about one query in four is followed by a
// refresh — the write share the gate ablation measured (674 of 2880).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campus/stats_stream.hpp"
#include "chan/trajectory.hpp"
#include "loc/fingerprint_db.hpp"
#include "loc/locator.hpp"
#include "loc/mobility_gate.hpp"
#include "net/deployment.hpp"
#include "runtime/thread_pool.hpp"
#include "util/alloc_count.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mobiwlan;

// Same survey-seed derivation as the loc suite's main database.
constexpr std::uint64_t kDbSalt = 0x10CDB;
constexpr std::uint64_t kPoolSalt = 0xBE0C0001;
constexpr std::uint64_t kSequenceSalt = 0xBE0C0002;
constexpr double kQueryPeriodS = 0.5;   ///< per-client query cadence
constexpr double kRefreshAlpha = 0.25;  ///< EWMA weight of a refresh

// Correctness bounds. The pool sits at least two cells inside the survey
// area, where every position hears several APs; the loc suite's kNN median
// error on held-out walks is 10.5 m, and a locator that has stopped working
// misses by tens of metres.
constexpr double kMaxErrMedianM = 14.0;
// Checksum of the first check_queries results at the default seed and full
// size.
constexpr std::uint64_t kDefaultChecksum = 18023872309749124573ULL;

struct Shape {
  std::size_t cells_per_side;
  std::size_t aps_per_side;
  std::size_t pool;
  std::uint64_t check_queries;
  std::size_t block;  ///< queries per throughput/latency block
  int setups;
};

Shape shape_for(Size size) {
  return size == Size::kTiny ? Shape{24, 3, 32, 256, 256, 1}
                             : Shape{100, 8, 64, 4096, 4096, 3};
}

loc::FingerprintDbConfig db_config(const RunConfig& rc, const Shape& sh) {
  loc::FingerprintDbConfig cfg;
  cfg.cols = sh.cells_per_side;
  cfg.rows = sh.cells_per_side;
  cfg.pitch_m = 4.0;
  cfg.coverage_radius_m = 60.0;
  cfg.rssi_floor_dbm = -88.0;
  cfg.seed = Rng(rc.seed).stream(kDbSalt).seed();
  return cfg;
}

/// The parallel survey the loc suite uses, on the benchmark's own pool:
/// survey_cell is a pure function of (config, cell), so the rows are the
/// serial build's bits at any worker count. `survey_ns` (optional)
/// collects every survey_cell call's duration.
std::unique_ptr<loc::FingerprintDb> build_db(const loc::FingerprintDbConfig& cfg,
                                             const Shape& sh,
                                             runtime::ThreadPool& pool,
                                             std::vector<double>* survey_ns) {
  auto db = std::make_unique<loc::FingerprintDb>(
      cfg, WlanDeployment::grid_layout(sh.aps_per_side, sh.aps_per_side, 52.0),
      ChannelConfig{});
  const std::size_t n_cells = db->n_cells();
  const std::size_t n_aps = db->n_aps();
  std::vector<float> feat(n_cells * n_aps * loc::kFeat);
  std::vector<float> rssi(n_cells * n_aps);
  std::vector<std::uint64_t> masks(n_cells);
  const std::size_t slots = pool.size() + 1;
  std::vector<ChannelBatch::Scratch> scratch(slots);
  std::vector<std::vector<double>> times(slots);
  const loc::FingerprintDb* dbp = db.get();
  pool.parallel_for(n_cells, 64, [&](std::size_t slot, std::size_t b, std::size_t e) {
    for (std::size_t cell = b; cell < e; ++cell) {
      const std::int64_t t0 = survey_ns ? now_ns() : 0;
      dbp->survey_cell(cell, &feat[cell * n_aps * loc::kFeat], &rssi[cell * n_aps],
                       &masks[cell], scratch[slot]);
      if (survey_ns) times[slot].push_back(static_cast<double>(now_ns() - t0));
    }
  });
  db->adopt_rows(std::move(feat), std::move(rssi), std::move(masks));
  if (survey_ns)
    for (const auto& t : times) survey_ns->insert(survey_ns->end(), t.begin(), t.end());
  return db;
}

struct Observation {
  std::size_t ap = 0;
  CsiMatrix csi;
  double rssi_dbm = 0.0;
};

struct Client {
  Vec2 truth{};
  std::size_t reg_cell = 0;
  bool is_static = false;
  std::vector<Observation> obs;
};

/// The query pool: per-AP observations of static positions through the
/// survey's own per-AP channel streams (the same environment), synthesized
/// once — the channel engine runs only here, in set-up.
std::vector<Client> make_pool(const loc::FingerprintDb& db, const RunConfig& rc,
                              std::size_t n) {
  const auto& cfg = db.config();
  Rng rng = Rng(rc.seed).stream(kPoolSalt);
  const double margin = 2.0 * cfg.pitch_m;
  const double span_x = static_cast<double>(cfg.cols) * cfg.pitch_m;
  const double span_y = static_cast<double>(cfg.rows) * cfg.pitch_m;
  ChannelBatch::Scratch cs;
  ChannelSample smp;
  std::vector<Client> pool(n);
  for (Client& c : pool) {
    c.truth = cfg.origin + Vec2{rng.uniform(margin, span_x - margin),
                                rng.uniform(margin, span_y - margin)};
    c.reg_cell = db.nearest_cell(c.truth);
    c.is_static = rng.uniform() < 0.5;
    const auto traj = std::make_shared<StaticTrajectory>(c.truth);
    for (std::size_t ap = 0; ap < db.n_aps(); ++ap) {
      if (distance(db.ap_position(ap), c.truth) > cfg.coverage_radius_m) continue;
      WirelessChannel ch(db.channel_config(), db.ap_position(ap), traj,
                         Rng(cfg.seed).stream(loc::kSurveySalt ^ ap));
      ChannelBatch::sample_link(ch, 0.0, smp, cs);
      c.obs.push_back(Observation{ap, smp.csi, smp.rssi_dbm});
    }
  }
  return pool;
}

/// Query-sequence state: which client asks next, and each client's gate and
/// clock. Two states built from one seed produce the same sequence.
struct Sequence {
  Sequence(const RunConfig& rc, std::size_t clients)
      : rng(Rng(rc.seed).stream(kSequenceSalt)), gates(clients), clock(clients, 0.0) {}
  Rng rng;
  std::vector<loc::MobilityGate> gates;
  std::vector<double> clock;
};

struct LoopOut {
  std::uint64_t queries = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t invalid = 0;
  std::uint64_t checksum = campus::kFnvOffset;  ///< first check_queries only
  double wall_s = 0.0;
  // Per block of Shape::block queries: query throughput and median query
  // latency. Blocks keep memory fixed however many queries a run serves.
  std::vector<double> block_rates, block_p50_us;
  std::vector<double> err_m;  ///< first check_queries queries only
  // Traced loops only: every query's latency, its summed observe_ap time and
  // its locate time, and every refresh's latency.
  std::vector<double> query_us, observe_us, locate_us, refresh_us;
};

/// Serves queries until `seconds` have passed and at least check_queries
/// ran, or exactly `max_queries` when that is nonzero. With `rec`, every
/// call into the locator and database is timed and one query in 64 is kept
/// as spans.
LoopOut serve(loc::FingerprintDb& db, const std::vector<Client>& pool,
              Sequence& seq, const Shape& sh, double seconds,
              std::uint64_t max_queries, SpanRecorder* rec,
              CpuRotation* rotation = nullptr) {
  loc::Locator locator(&db, loc::LocatorConfig{});
  loc::Locator::Scratch s;
  LoopOut out;
  std::vector<double> block_us;
  block_us.reserve(sh.block);
  const int last = static_cast<int>(pool.size()) - 1;
  const std::int64_t start = now_ns();
  std::int64_t block_start = start;
  for (;;) {
    if (block_us.size() == sh.block) {
      if (rotation) rotation->next();
      const std::int64_t t = now_ns();
      out.block_rates.push_back(static_cast<double>(sh.block) * 1e9 /
                                static_cast<double>(t - block_start));
      out.block_p50_us.push_back(median(block_us));
      block_us.clear();
      block_start = t;
    }
    if (max_queries ? out.queries >= max_queries
                    : (out.queries >= sh.check_queries && (out.queries & 63) == 0 &&
                       static_cast<double>(now_ns() - start) / 1e9 >= seconds))
      break;
    const std::uint64_t q = out.queries++;
    const auto c = static_cast<std::size_t>(seq.rng.uniform_int(0, last));
    const Client& cl = pool[c];
    loc::LocEstimate est;
    const std::int64_t t0 = now_ns();
    if (!rec) {
      locator.begin_query(s);
      for (const Observation& o : cl.obs) locator.observe_ap(s, o.ap, o.csi, o.rssi_dbm);
      est = locator.locate(s);
    } else {
      const bool keep = q % 64 == 0;
      const std::int32_t parent = keep ? rec->add("loc.query", q, t0, t0) : -1;
      locator.begin_query(s);
      double observe = 0.0;
      for (const Observation& o : cl.obs) {
        const std::int64_t a = now_ns();
        locator.observe_ap(s, o.ap, o.csi, o.rssi_dbm);
        const std::int64_t b = now_ns();
        observe += static_cast<double>(b - a);
        if (keep) rec->add("loc.observe_ap", q, a, b, parent);
      }
      const std::int64_t a = now_ns();
      est = locator.locate(s);
      const std::int64_t b = now_ns();
      if (keep) {
        rec->add("loc.locate", q, a, b, parent);
        rec->end_at(parent, b);
      }
      out.observe_us.push_back(observe / 1e3);
      out.locate_us.push_back(static_cast<double>(b - a) / 1e3);
    }
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    block_us.push_back(us);
    if (rec) out.query_us.push_back(us);
    if (!est.valid) ++out.invalid;
    if (q < sh.check_queries) {
      if (est.valid) out.err_m.push_back(distance(est.position, cl.truth));
      out.checksum = campus::fnv1a_mix(out.checksum, static_cast<std::uint64_t>(est.cell));
      out.checksum = campus::fnv1a_mix(out.checksum, static_cast<std::uint64_t>(est.valid));
      out.checksum = campus::fnv1a_mix(out.checksum, est.position.x);
      out.checksum = campus::fnv1a_mix(out.checksum, est.position.y);
    }

    seq.clock[c] += kQueryPeriodS;
    const std::optional<MobilityMode> decision =
        cl.is_static ? MobilityMode::kStatic : MobilityMode::kMicro;
    if (seq.gates[c].route(seq.clock[c], decision) == loc::GateAction::kRefresh) {
      const std::int64_t r0 = now_ns();
      db.refresh(cl.reg_cell, s.feat.data(), s.rssi.data(), s.mask, kRefreshAlpha);
      const std::int64_t r1 = now_ns();
      if (rec) {
        out.refresh_us.push_back(static_cast<double>(r1 - r0) / 1e3);
        if (q % 64 == 0) rec->add("loc.refresh", q, r0, r1);
      }
      ++out.refreshes;
    }
  }
  out.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  if (out.block_rates.empty()) {  // shorter than one block: one partial block
    out.block_rates.push_back(static_cast<double>(out.queries) / out.wall_s);
    out.block_p50_us.push_back(median(block_us));
  }
  return out;
}

/// Output checks: every query found a position, the median error is within
/// bound, and the checksum of the first queries matches an independent
/// replay on a pristine database copy (and the pinned value at the default
/// seed).
void check_loop(Result& res, const RunConfig& rc, const Shape& sh,
                const LoopOut& out, const loc::FingerprintDb& pristine,
                const std::vector<Client>& pool) {
  loc::FingerprintDb copy = pristine;
  Sequence seq(rc, pool.size());
  const LoopOut replay = serve(copy, pool, seq, sh, 0.0, sh.check_queries, nullptr);
  res.check(out.invalid == 0, "loc-mixed: queries without an estimate");
  const double err = median(out.err_m);
  res.check(err <= kMaxErrMedianM,
            "loc-mixed: median error " + std::to_string(err) + " m above bound");
  res.check(replay.checksum == out.checksum,
            "loc-mixed: query checksum differs from an independent replay");
  if (rc.seed == kDefaultSeed && rc.size == Size::kFull)
    res.check(out.checksum == kDefaultChecksum,
              "loc-mixed: query checksum differs from the default-seed value");
  std::printf("loc-mixed: query checksum %llu over %llu queries\n",
              static_cast<unsigned long long>(out.checksum),
              static_cast<unsigned long long>(sh.check_queries));
  res.attempted += out.queries;
  res.failed += out.invalid;
}

/// The tiny database at the default seed, checked in every run: its query
/// checksum is pinned, so a build that locates differently fails at any
/// --seed.
constexpr std::uint64_t kPinnedChecksum = 857475950904508728ULL;

void check_pinned(Result& res, runtime::ThreadPool& workers) {
  RunConfig tiny;
  tiny.size = Size::kTiny;
  const Shape sh = shape_for(tiny.size);
  const auto db = build_db(db_config(tiny, sh), sh, workers, nullptr);
  const std::vector<Client> pool = make_pool(*db, tiny, sh.pool);
  Sequence seq(tiny, pool.size());
  const LoopOut out = serve(*db, pool, seq, sh, 0.0, sh.check_queries, nullptr);
  res.check(out.checksum == kPinnedChecksum,
            "loc-mixed: the pinned default-seed reference queries locate differently");
}

}  // namespace

Result loc_e2e(const RunConfig& rc) {
  simd::set_forced_precision(0);
  const Shape sh = shape_for(rc.size);
  runtime::ThreadPool workers(bench_workers() - 1);
  const loc::FingerprintDbConfig cfg = db_config(rc, sh);
  std::vector<double> setups;
  std::unique_ptr<loc::FingerprintDb> db;
  for (int i = 0; i < sh.setups; ++i) {
    db.reset();
    const std::int64_t t0 = now_ns();
    db = build_db(cfg, sh, workers, nullptr);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::vector<Client> pool = make_pool(*db, rc, sh.pool);
  const loc::FingerprintDb pristine = *db;

  Sequence seq(rc, pool.size());
  LoopOut out;
  {
    CpuRotation rotation;
    out = serve(*db, pool, seq, sh, rc.seconds, 0, nullptr, &rotation);
  }
  Result res;
  check_loop(res, rc, sh, out, pristine, pool);
  check_pinned(res, workers);
  // Other load on the host only ever slows a block down, so the fastest
  // decile of equal blocks is the steadiest estimate of the code's speed.
  // Single refreshes are too short to time steadily one by one; the write
  // rate is the gated refreshes the whole loop completed per second.
  std::vector<double> rates = out.block_rates, p50 = out.block_p50_us;
  res.add("setup_s", median(setups), "s");
  res.add("ops_per_s", quantile(rates, 0.9), "1/s");
  res.add("op_us_p50", quantile(p50, 0.1), "us");
  res.add("aux_per_s", static_cast<double>(out.refreshes) / out.wall_s, "1/s");
  return res;
}

Result loc_traced(const RunConfig& rc, SpanRecorder& rec) {
  simd::set_forced_precision(0);
  const Shape sh = shape_for(rc.size);
  runtime::ThreadPool workers(bench_workers() - 1);
  std::vector<double> survey_ns;
  const auto db = build_db(db_config(rc, sh), sh, workers, &survey_ns);
  const std::vector<Client> pool = make_pool(*db, rc, sh.pool);

  // The same query sequence untraced, then traced, each on its own copy.
  const double block_s = rc.seconds / 2.0;
  loc::FingerprintDb plain_db = *db;
  Sequence plain_seq(rc, pool.size());
  const std::uint64_t allocs0 = alloc_count();
  const LoopOut plain = serve(plain_db, pool, plain_seq, sh, block_s, 0, nullptr);
  const std::uint64_t allocs = alloc_count() - allocs0;

  loc::FingerprintDb traced_db = *db;
  Sequence traced_seq(rc, pool.size());
  rec.set_track(kTrackLoc);
  LoopOut traced = serve(traced_db, pool, traced_seq, sh, block_s, 0, &rec);

  Result res;
  check_loop(res, rc, sh, traced, *db, pool);
  check_pinned(res, workers);
  double used = 0.0;
  res.add("loc.observe_ap_us", iq_mean(traced.observe_us), "us");
  res.add("loc.locate_us", iq_mean(traced.locate_us), "us");
  res.add("loc.query_us_p99", tail_value(traced.query_us, 99.0, &used), "us");
  res.add("loc.refresh_us_p50", median(traced.refresh_us), "us");
  res.add("loc.refresh_us_p99", tail_value(traced.refresh_us, 99.0, &used), "us");
  res.add("loc.writes", static_cast<double>(traced_db.writes()), "count");
  res.add("loc.valid_ratio",
          1.0 - static_cast<double>(traced.invalid) / static_cast<double>(traced.queries),
          "ratio");
  res.add("loc.err_median_m", median(traced.err_m), "m");
  res.add("loc.survey_cell_us", iq_mean(survey_ns) / 1e3, "us");
  res.add("loc-mixed.allocs_per_op",
          static_cast<double>(allocs) / static_cast<double>(plain.queries), "count");
  res.add("loc-mixed.trace_overhead_pct",
          overhead_pct(1.0 / median(plain.block_rates), 1.0 / median(traced.block_rates)),
          "%");
  return res;
}

}  // namespace perfbench
