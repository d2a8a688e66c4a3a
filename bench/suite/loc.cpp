// Localization suite (`mobiwlan-bench --suite loc`): the CSI-fingerprint
// indoor-positioning workload built on src/loc/.
//
//   * loc.db.*   — a 100x100-cell / 64-AP fingerprint database surveyed in
//     parallel through the Experiment sharder (bitwise digest, serial
//     rebuild spot-check at 0 mismatches).
//   * loc.err.*  — held-out walks localized against the DB: kNN-only and
//     AoA/ToF-fused median and p90 error in meters.
//   * loc.gate.* — the mobility-gated-refresh ablation: the identical
//     recorded observation stream replayed into two DB copies, one routed
//     by MobilityGate (static clients refresh their registration cell,
//     mobile/unknown query only), one refreshing on every epoch. Gating
//     must be no worse on post-replay probe accuracy with strictly fewer
//     writes.
//   * loc.lookup_checksum / timing_loc_* — the raw-speed section: repeated
//     single-thread lookup blocks against the 10^4-cell DB, median wall.
//
// Metrics land in a fidelity::FidelityReport gated against
// ci/loc_baseline.json with the usual flat-JSON schema and seed policy.
// Everything outside keys starting with "timing" is byte-identical for a
// fixed --seed at any --jobs; `ci/gate.sh loc` diffs jobs 1 vs 8, and
// ci/perf_gate.sh holds the lookup-rate floor (gate_loc_lookups_per_s in
// ci/perf_baseline.json, 0.85 grace like the campus throughput floor).
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chan/trajectory.hpp"
#include "core/mobility_classifier.hpp"
#include "fidelity/fidelity.hpp"
#include "loc/fingerprint_db.hpp"
#include "loc/locator.hpp"
#include "loc/mobility_gate.hpp"
#include "net/deployment.hpp"
#include "phy/aoa.hpp"
#include "suite/suite.hpp"
#include "util/alloc_count.hpp"
#include "util/simd.hpp"

namespace mobiwlan::benchsuite {
namespace {

using fidelity::FidelityReport;

// ---- shared workload shape -------------------------------------------------

/// Salts decorrelating the suite's derived seeds from each other.
constexpr std::uint64_t kDbSalt = 0x10CDB;
constexpr std::uint64_t kSmallDbSalt = 0x10C5D;
constexpr std::uint64_t kQuerySalt = 0x10CD1CE;

constexpr double kEpochPeriodS = 0.5;   ///< classifier CSI cadence
constexpr double kRefreshAlpha = 0.25;  ///< EWMA weight of a refresh

loc::LocatorConfig locator_config() { return loc::LocatorConfig{}; }

/// The main 10^4-cell database: 100x100 cells at 4 m pitch under an
/// 8x8 AP grid at 52 m pitch (everywhere covered, ~4-5 audible APs/cell).
loc::FingerprintDbConfig main_db_config(std::uint64_t seed) {
  loc::FingerprintDbConfig cfg;
  cfg.cols = 100;
  cfg.rows = 100;
  cfg.pitch_m = 4.0;
  cfg.coverage_radius_m = 60.0;
  cfg.rssi_floor_dbm = -88.0;
  cfg.seed = Rng(seed).stream(kDbSalt).seed();
  return cfg;
}

/// The ablation database: small enough that two replay arms with per-epoch
/// writes stay cheap, dense enough that every cell hears several APs.
loc::FingerprintDbConfig small_db_config(std::uint64_t seed) {
  loc::FingerprintDbConfig cfg;
  cfg.cols = 32;
  cfg.rows = 32;
  cfg.pitch_m = 4.0;
  cfg.coverage_radius_m = 60.0;
  cfg.rssi_floor_dbm = -88.0;
  cfg.seed = Rng(seed).stream(kSmallDbSalt).seed();
  return cfg;
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

/// A query-side channel observing the same per-AP environment the survey
/// recorded (same stream id — see the FingerprintDb header).
std::unique_ptr<WirelessChannel> query_channel(
    const loc::FingerprintDb& db, std::size_t ap,
    std::shared_ptr<const Trajectory> traj) {
  return std::make_unique<WirelessChannel>(
      db.channel_config(), db.ap_position(ap), std::move(traj),
      Rng(db.config().seed).stream(loc::kSurveySalt ^ ap));
}

// ---- database build --------------------------------------------------------

struct CellRows {
  std::vector<float> row;
  std::vector<float> rssi;
  std::uint64_t mask = 0;
};

/// Builds a FingerprintDb by fanning survey_cell over the Experiment
/// sharder. Each cell's row is a pure function of (config, cell), so the
/// adopted database is bitwise identical to FingerprintDb::build() at any
/// worker count.
std::unique_ptr<loc::FingerprintDb> build_db(runtime::Experiment& exp,
                                             const loc::FingerprintDbConfig& cfg,
                                             std::vector<Vec2> aps,
                                             const ChannelConfig& chan_cfg) {
  auto db = std::make_unique<loc::FingerprintDb>(cfg, std::move(aps), chan_cfg);
  const loc::FingerprintDb* dbp = db.get();
  const std::size_t n_aps = db->n_aps();
  const auto rows = exp.map<CellRows>(
      db->n_cells(), [dbp, n_aps](runtime::Trial& trial) {
        CellRows r;
        r.row.resize(n_aps * loc::kFeat);
        r.rssi.resize(n_aps);
        ChannelBatch::Scratch scratch;
        dbp->survey_cell(trial.index, r.row.data(), r.rssi.data(), &r.mask,
                         scratch);
        return r;
      });

  std::vector<float> feat(db->n_cells() * n_aps * loc::kFeat);
  std::vector<float> rssi(db->n_cells() * n_aps);
  std::vector<std::uint64_t> masks(db->n_cells());
  for (std::size_t cell = 0; cell < rows.size(); ++cell) {
    std::copy(rows[cell].row.begin(), rows[cell].row.end(),
              feat.begin() + static_cast<std::ptrdiff_t>(cell * n_aps * loc::kFeat));
    std::copy(rows[cell].rssi.begin(), rows[cell].rssi.end(),
              rssi.begin() + static_cast<std::ptrdiff_t>(cell * n_aps));
    masks[cell] = rows[cell].mask;
  }
  db->adopt_rows(std::move(feat), std::move(rssi), std::move(masks));
  return db;
}

void loc_db_section(FidelityReport& rep, const loc::FingerprintDb& db) {
  std::uint64_t visible = 0;
  for (std::size_t cell = 0; cell < db.n_cells(); ++cell)
    visible += static_cast<std::uint64_t>(std::popcount(db.cell_mask(cell)));

  // Serial rebuild spot-check: re-survey a spread of cells on this thread
  // and compare bitwise against the parallel-built rows.
  constexpr std::size_t kProbes = 17;
  ChannelBatch::Scratch scratch;
  std::vector<float> row(db.n_aps() * loc::kFeat);
  std::vector<float> rssi(db.n_aps());
  std::uint64_t mismatches = 0;
  for (std::size_t p = 0; p < kProbes; ++p) {
    const std::size_t cell = (p * db.n_cells()) / kProbes;
    std::uint64_t mask = 0;
    db.survey_cell(cell, row.data(), rssi.data(), &mask, scratch);
    if (mask != db.cell_mask(cell) ||
        std::memcmp(row.data(), db.cell_features(cell),
                    row.size() * sizeof(float)) != 0 ||
        std::memcmp(rssi.data(), db.cell_rssi(cell),
                    rssi.size() * sizeof(float)) != 0)
      ++mismatches;
  }

  const std::uint64_t digest = db.digest();
  rep.add("loc.db.cells", static_cast<double>(db.n_cells()));
  rep.add("loc.db.aps", static_cast<double>(db.n_aps()));
  rep.add("loc.db.visible_pairs", static_cast<double>(visible));
  rep.add("loc.db.digest_hi", static_cast<double>(digest >> 32));
  rep.add("loc.db.digest_lo", static_cast<double>(digest & 0xffffffffULL));
  rep.add("loc.db.rebuild_mismatches", static_cast<double>(mismatches));
}

// ---- held-out walk accuracy ------------------------------------------------

struct WalkErrs {
  std::vector<double> knn;
  std::vector<double> fused;
};

void loc_err_section(runtime::Experiment& exp, FidelityReport& rep,
                     const loc::FingerprintDb& db) {
  constexpr std::size_t kWalks = 6;
  constexpr int kQueriesPerWalk = 120;
  const auto results = exp.map<WalkErrs>(kWalks, [&db](runtime::Trial& trial) {
    const auto& cfg = db.config();
    WalkErrs out;

    WalkTrajectory::Config wc;
    const double margin = 5.0 * cfg.pitch_m;
    wc.bounds_min = cfg.origin + Vec2{margin, margin};
    wc.bounds_max =
        cfg.origin + Vec2{static_cast<double>(cfg.cols) * cfg.pitch_m - margin,
                          static_cast<double>(cfg.rows) * cfg.pitch_m - margin};
    const Vec2 start{trial.rng.uniform(wc.bounds_min.x, wc.bounds_max.x),
                     trial.rng.uniform(wc.bounds_min.y, wc.bounds_max.y)};
    const auto traj =
        std::make_shared<WalkTrajectory>(start, trial.rng, wc, 120.0);

    std::vector<std::unique_ptr<WirelessChannel>> chans(db.n_aps());
    for (std::size_t ap = 0; ap < db.n_aps(); ++ap)
      chans[ap] = query_channel(db, ap, traj);

    loc::Locator locator(&db, locator_config());
    loc::Locator::Scratch s;
    ChannelBatch::Scratch cs;
    ChannelSample smp, serving_smp;
    for (int q = 0; q < kQueriesPerWalk; ++q) {
      const double t = kEpochPeriodS * q;
      const Vec2 truth = traj->position(t);
      locator.begin_query(s);
      double best_rssi = -1e18;
      std::size_t serving = 0;
      for (std::size_t ap = 0; ap < db.n_aps(); ++ap) {
        if (distance(db.ap_position(ap), truth) > cfg.coverage_radius_m)
          continue;
        ChannelBatch::sample_link(*chans[ap], t, smp, cs);
        locator.observe_ap(s, ap, smp.csi, smp.rssi_dbm);
        if (smp.rssi_dbm > best_rssi) {
          best_rssi = smp.rssi_dbm;
          serving = ap;
          serving_smp = smp;
        }
      }
      const loc::LocEstimate knn = locator.locate(s);
      if (!knn.valid) continue;
      out.knn.push_back(distance(knn.position, truth));
      const AoaEstimate aoa = estimate_aoa(serving_smp.csi);
      const loc::LocEstimate fused =
          locator.locate_fused(s, aoa, serving, serving_smp.tof_cycles);
      out.fused.push_back(distance(fused.position, truth));
    }
    return out;
  });

  std::vector<double> knn, fused;
  for (const auto& r : results) {
    knn.insert(knn.end(), r.knn.begin(), r.knn.end());
    fused.insert(fused.end(), r.fused.begin(), r.fused.end());
  }
  rep.add("loc.err.queries", static_cast<double>(knn.size()));
  rep.add("loc.err.knn_median_m", percentile(knn, 0.5));
  rep.add("loc.err.knn_p90_m", percentile(knn, 0.9));
  rep.add("loc.err.fused_median_m", percentile(fused, 0.5));
  rep.add("loc.err.fused_p90_m", percentile(fused, 0.9));
}

// ---- mobility-gated refresh ablation ---------------------------------------

constexpr std::size_t kClients = 24;  ///< half static, half walking
constexpr std::size_t kEpochs = 120;  ///< 60 s at the classifier cadence

struct ObsRec {
  std::vector<float> feat;
  std::vector<float> rssi;
  std::uint64_t mask = 0;
  int decision = -1;  ///< classifier decision ordinal, -1 = withheld
  Vec2 truth{};
};

struct ClientRecord {
  bool is_static = false;
  std::vector<ObsRec> epochs;
};

/// Records one client's 60 s of observations: per epoch the query
/// fingerprint, the live classifier's decision, and the ground truth. The
/// same records then replay into both ablation arms, so the arms differ
/// only in refresh policy — never in what was observed.
ClientRecord record_client(runtime::Trial& trial, const loc::FingerprintDb& db) {
  const auto& cfg = db.config();
  ClientRecord rec;
  rec.is_static = trial.index < kClients / 2;

  const double margin = 2.0 * cfg.pitch_m;
  const double span_x = static_cast<double>(cfg.cols) * cfg.pitch_m;
  const double span_y = static_cast<double>(cfg.rows) * cfg.pitch_m;
  const Vec2 lo = cfg.origin + Vec2{margin, margin};
  const Vec2 hi = cfg.origin + Vec2{span_x - margin, span_y - margin};
  const Vec2 start{trial.rng.uniform(lo.x, hi.x), trial.rng.uniform(lo.y, hi.y)};
  std::shared_ptr<const Trajectory> traj;
  if (rec.is_static) {
    traj = std::make_shared<StaticTrajectory>(start);
  } else {
    WalkTrajectory::Config wc;
    wc.bounds_min = lo;
    wc.bounds_max = hi;
    traj = std::make_shared<WalkTrajectory>(start, trial.rng, wc, 120.0);
  }

  std::vector<std::unique_ptr<WirelessChannel>> chans(db.n_aps());
  for (std::size_t ap = 0; ap < db.n_aps(); ++ap)
    chans[ap] = query_channel(db, ap, traj);

  loc::Locator locator(&db, locator_config());
  loc::Locator::Scratch s;
  ChannelBatch::Scratch cs;
  ChannelSample smp, serving_smp;
  MobilityClassifier clf{MobilityClassifier::Config{}};
  rec.epochs.resize(kEpochs);
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const double t = kEpochPeriodS * static_cast<double>(e);
    const Vec2 truth = traj->position(t);
    locator.begin_query(s);
    double best_rssi = -1e18;
    std::size_t serving = 0;
    bool have_serving = false;
    for (std::size_t ap = 0; ap < db.n_aps(); ++ap) {
      if (distance(db.ap_position(ap), truth) > cfg.coverage_radius_m) continue;
      ChannelBatch::sample_link(*chans[ap], t, smp, cs);
      locator.observe_ap(s, ap, smp.csi, smp.rssi_dbm);
      if (smp.rssi_dbm > best_rssi) {
        best_rssi = smp.rssi_dbm;
        serving = ap;
        serving_smp = smp;
        have_serving = true;
      }
    }

    // A third of the clients lose their PHY exports for 5 s mid-run, so
    // the gated arm exercises hold-then-decay on genuinely stale decisions.
    const bool outage = (trial.index % 3 == 0) && e >= 60 && e < 70;
    if (have_serving && !outage) {
      clf.on_csi(t, serving_smp.csi);
      const auto tof_period = MobilityClassifier::Config{}.tof_period_s;
      const int n_tof = static_cast<int>(kEpochPeriodS / tof_period);
      for (int i = 0; i < n_tof; ++i)
        clf.on_tof(t + tof_period * i, chans[serving]->tof_cycles(t + tof_period * i));
    }

    ObsRec& r = rec.epochs[e];
    r.feat = s.feat;
    r.rssi = s.rssi;
    r.mask = s.mask;
    r.truth = truth;
    const auto decided = clf.decision(t);
    r.decision = decided ? static_cast<int>(*decided) : -1;
  }
  return rec;
}

/// Rebuilds a recorded query in the locator scratch (strongest-AP choice
/// replays the observe_ap tie-break: highest RSSI, lowest index).
void load_query(const loc::Locator& locator, loc::Locator::Scratch& s,
                const ObsRec& r) {
  locator.begin_query(s);
  std::copy(r.feat.begin(), r.feat.end(), s.feat.begin());
  std::copy(r.rssi.begin(), r.rssi.end(), s.rssi.begin());
  s.mask = r.mask;
  std::uint64_t bits = r.mask;
  while (bits != 0) {
    const std::size_t ap = static_cast<std::size_t>(std::countr_zero(bits));
    bits &= bits - 1;
    if (s.rssi[ap] > s.strongest_rssi) {
      s.strongest_rssi = s.rssi[ap];
      s.strongest_ap = ap;
    }
  }
}

struct ArmResult {
  std::uint64_t writes = 0;
  std::uint64_t held = 0;
  std::uint64_t decayed = 0;
  std::vector<double> errs;        ///< per-epoch localization error, live DB
  std::vector<double> probe_errs;  ///< post-replay probes at registered cells
};

/// Replays the recorded streams into a copy of the DB under one refresh
/// policy. A refresh contributes the client's current fingerprint to its
/// *registered* cell — the cell of the position it associated at, which is
/// where the infrastructure believes a static client sits. That is exactly
/// the update a crowdsourced fingerprint DB harvests from parked clients,
/// and exactly what mobility-gating protects: a walking client believed
/// static EWMAs far-away fingerprints into its registration cell. The
/// post-replay probes replay every client's epoch-0 observation against
/// the final DB, so corrupted registration cells surface as probe error.
ArmResult run_arm(const loc::FingerprintDb& base,
                  const std::vector<ClientRecord>& recs, bool gated) {
  loc::FingerprintDb db = base;  // each arm mutates its own copy
  loc::Locator locator(&db, locator_config());
  loc::Locator::Scratch s;
  std::vector<loc::MobilityGate> gates(recs.size());
  std::vector<std::size_t> reg_cell(recs.size());
  for (std::size_t c = 0; c < recs.size(); ++c)
    reg_cell[c] = db.nearest_cell(recs[c].epochs[0].truth);
  ArmResult out;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const double t = kEpochPeriodS * static_cast<double>(e);
    for (std::size_t c = 0; c < recs.size(); ++c) {
      const ObsRec& r = recs[c].epochs[e];
      if (r.mask == 0) continue;
      load_query(locator, s, r);
      const loc::LocEstimate est = locator.locate(s);
      if (!est.valid) continue;
      out.errs.push_back(distance(est.position, r.truth));
      bool refresh = true;
      if (gated) {
        const std::optional<MobilityMode> decision =
            r.decision >= 0
                ? std::optional<MobilityMode>(static_cast<MobilityMode>(r.decision))
                : std::nullopt;
        refresh = gates[c].route(t, decision) == loc::GateAction::kRefresh;
      }
      if (refresh)
        db.refresh(reg_cell[c], s.feat.data(), s.rssi.data(), s.mask,
                   kRefreshAlpha);
    }
  }
  out.writes = db.writes();
  for (const auto& g : gates) {
    out.held += g.held();
    out.decayed += g.decayed();
  }
  for (std::size_t c = 0; c < recs.size(); ++c) {
    const ObsRec& r = recs[c].epochs[0];
    if (r.mask == 0) continue;
    load_query(locator, s, r);
    const loc::LocEstimate est = locator.locate(s);
    if (est.valid) out.probe_errs.push_back(distance(est.position, r.truth));
  }
  return out;
}

void loc_gate_section(runtime::Experiment& exp, FidelityReport& rep,
                      std::uint64_t seed, const ChannelConfig& chan_cfg) {
  const auto db = build_db(exp, small_db_config(seed),
                           WlanDeployment::grid_layout(4, 4, 40.0), chan_cfg);
  const loc::FingerprintDb* dbp = db.get();
  const auto records = exp.map<ClientRecord>(
      kClients,
      [dbp](runtime::Trial& trial) { return record_client(trial, *dbp); });

  ArmResult gated = run_arm(*db, records, /*gated=*/true);
  ArmResult always = run_arm(*db, records, /*gated=*/false);

  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double probe_gated = mean(gated.probe_errs);
  const double probe_always = mean(always.probe_errs);
  rep.add("loc.gate.writes_gated", static_cast<double>(gated.writes));
  rep.add("loc.gate.writes_always", static_cast<double>(always.writes));
  rep.add("loc.gate.fewer_writes", gated.writes < always.writes ? 1.0 : 0.0);
  rep.add("loc.gate.err_gated_median_m", percentile(gated.errs, 0.5));
  rep.add("loc.gate.err_always_median_m", percentile(always.errs, 0.5));
  rep.add("loc.gate.probe_err_gated_m", probe_gated);
  rep.add("loc.gate.probe_err_always_m", probe_always);
  rep.add("loc.gate.accuracy_ok", probe_gated <= probe_always + 1e-9 ? 1.0 : 0.0);
  rep.add("loc.gate.held", static_cast<double>(gated.held));
  rep.add("loc.gate.decayed", static_cast<double>(gated.decayed));
}

// ---- raw lookup throughput -------------------------------------------------

void loc_throughput_section(FidelityReport& rep, const loc::FingerprintDb& db) {
  constexpr std::size_t kPrepared = 64;
  constexpr std::size_t kBlock = 20000;
  constexpr int kRuns = 5;
  const auto& cfg = db.config();

  loc::Locator locator(&db, locator_config());
  std::vector<loc::Locator::Scratch> queries(kPrepared);
  Rng qrng = Rng(cfg.seed).stream(kQuerySalt);
  ChannelBatch::Scratch cs;
  ChannelSample smp;
  const double margin = 2.0 * cfg.pitch_m;
  for (std::size_t i = 0; i < kPrepared; ++i) {
    const Vec2 p =
        cfg.origin +
        Vec2{qrng.uniform(margin, static_cast<double>(cfg.cols) * cfg.pitch_m - margin),
             qrng.uniform(margin, static_cast<double>(cfg.rows) * cfg.pitch_m - margin)};
    const auto traj = std::make_shared<StaticTrajectory>(p);
    locator.begin_query(queries[i]);
    for (std::size_t ap = 0; ap < db.n_aps(); ++ap) {
      if (distance(db.ap_position(ap), p) > cfg.coverage_radius_m) continue;
      const auto ch = query_channel(db, ap, traj);
      ChannelBatch::sample_link(*ch, 0.0, smp, cs);
      locator.observe_ap(queries[i], ap, smp.csi, smp.rssi_dbm);
    }
  }

  // Warm pass (buffers reach steady state), then the alloc-counted
  // checksum pass: both deterministic, neither timed.
  for (std::size_t i = 0; i < kPrepared; ++i) (void)locator.locate(queries[i]);
  std::uint64_t checksum = 0;
  const std::uint64_t alloc0 = alloc_count();
  for (std::size_t i = 0; i < kBlock; ++i) {
    const loc::LocEstimate est = locator.locate(queries[i % kPrepared]);
    checksum += est.valid ? est.cell + 1 : 0;
  }
  const std::uint64_t allocs = alloc_count() - alloc0;

  std::vector<double> walls;
  std::uint64_t sink = 0;
  for (int r = 0; r < kRuns; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kBlock; ++i) {
      const loc::LocEstimate est = locator.locate(queries[i % kPrepared]);
      sink += est.cell;
    }
    walls.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  asm volatile("" : : "r"(&sink) : "memory");
  std::sort(walls.begin(), walls.end());
  const double median_wall = walls[walls.size() / 2];

  rep.add("loc.lookup_checksum", static_cast<double>(checksum));
  rep.add("loc.query_allocs", static_cast<double>(allocs));
  rep.add("timing_loc_median_wall_s", median_wall);
  rep.add("timing_loc_lookups_per_s",
          median_wall > 0.0 ? static_cast<double>(kBlock) / median_wall : 0.0);
  rep.add("timing_host_avx2", simd::avx2fma_supported() ? 1.0 : 0.0);
  rep.add("timing_host_avx512", simd::avx512_supported() ? 1.0 : 0.0);
  rep.add("timing_active_simd_tier",
          static_cast<double>(static_cast<int>(simd::active_tier())));
  rep.add("timing_active_precision_fp32",
          simd::active_precision() == simd::Precision::kFloat32 ? 1.0 : 0.0);
}

}  // namespace

FidelityReport run_loc_report(runtime::Experiment& exp) {
  FidelityReport rep;
  const std::uint64_t seed = exp.master_seed();
  const ChannelConfig chan_cfg;  // defaults: 3x2 antennas, 52 subcarriers
  const auto db = build_db(exp, main_db_config(seed),
                           WlanDeployment::grid_layout(8, 8, 52.0), chan_cfg);
  loc_db_section(rep, *db);
  loc_err_section(exp, rep, *db);
  loc_gate_section(exp, rep, seed, chan_cfg);
  loc_throughput_section(rep, *db);
  return rep;
}

}  // namespace mobiwlan::benchsuite
