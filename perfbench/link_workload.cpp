// link-trace: the paper's per-link loop (simulate_link with the
// mobility-aware Atheros RA and the classifier) over links of all four
// mobility classes, in two timed phases: record (live WirelessChannel via
// LiveChannelSource, teed through RecordingSource into a TraceWriter) and
// strict replay (the same loop driven by a TraceSource over the recording).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "chan/scenario.hpp"
#include "mac/atheros_ra.hpp"
#include "mac/link_sim.hpp"
#include "trace/source.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"
#include "util/alloc_count.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mobiwlan;

constexpr MobilityClass kClasses[] = {MobilityClass::kStatic,
                                      MobilityClass::kEnvironmental,
                                      MobilityClass::kMicro, MobilityClass::kMacro};
constexpr std::uint64_t kLinkSalt = 0x11C7;

struct LinkSpec {
  MobilityClass cls;
  std::uint64_t seed;
  ScenarioOptions options;
  std::string path;
};

/// `per_class` links of each mobility class. The links of one class split
/// the scenario's AP-client distance range into equal strata, one link
/// each, so every seed covers near and far links alike and the input mix —
/// which sets the rate, A-MPDU size and records per frame — varies little
/// from seed to seed.
std::vector<LinkSpec> link_specs(const RunConfig& rc, std::size_t per_class,
                                 const char* tag) {
  std::vector<LinkSpec> links;
  const Rng root = Rng(rc.seed).stream(kLinkSalt);
  const ScenarioOptions defaults;
  const double span = defaults.max_distance_m - defaults.min_distance_m;
  for (std::size_t i = 0; i < 4 * per_class; ++i) {
    const auto stratum = static_cast<double>(i / 4);
    ScenarioOptions opt;
    opt.min_distance_m =
        defaults.min_distance_m + span * stratum / static_cast<double>(per_class);
    opt.max_distance_m =
        defaults.min_distance_m + span * (stratum + 1.0) / static_cast<double>(per_class);
    links.push_back(LinkSpec{kClasses[i % 4], root.stream(i).seed(), opt,
                             rc.tmp_dir + "/link-" + tag + "-" + std::to_string(i) +
                                 ".mwtr"});
  }
  return links;
}

LinkSimConfig link_config() {
  LinkSimConfig cfg;
  cfg.duration_s = 1.0;
  return cfg;
}

int result_mismatches(const LinkSimResult& a, const LinkSimResult& b) {
  return (a.goodput_mbps != b.goodput_mbps) + (a.mean_per != b.mean_per) +
         (a.frames != b.frames) + (a.mpdus_sent != b.mpdus_sent) +
         (a.mpdus_lost != b.mpdus_lost) + (a.full_loss_events != b.full_loss_events) +
         (a.mcs_series != b.mcs_series) + (a.mode_series != b.mode_series);
}

/// Shared state of the timing decorators on one link: the recorder, the
/// innermost open span (the parent of the next read), and the frame the
/// link loop is on (every frame reads the SNR exactly once).
struct TraceCtx {
  SpanRecorder* rec = nullptr;
  std::int32_t current = -1;
  std::uint64_t frame = 0;
};

/// An ObservableSource that times every read of the source it wraps as a
/// span (child of whatever decorator read is open around it) and keeps the
/// per-read durations.
class TimedSource : public trace::ObservableSource {
 public:
  TimedSource(trace::ObservableSource& inner, const char* name, TraceCtx& ctx,
              bool counts_frames)
      : inner_(inner), name_(name), ctx_(ctx), counts_frames_(counts_frames) {}

  std::size_t n_units() const override { return inner_.n_units(); }
  bool has(trace::StreamKind kind) const override { return inner_.has(kind); }
  bool csi(std::uint32_t u, double t, CsiMatrix& out) override {
    return timed([&] { return inner_.csi(u, t, out); });
  }
  bool csi_feedback(std::uint32_t u, double t, CsiMatrix& out) override {
    return timed([&] { return inner_.csi_feedback(u, t, out); });
  }
  bool csi_true(std::uint32_t u, double t, CsiMatrix& out) override {
    return timed([&] { return inner_.csi_true(u, t, out); });
  }
  std::optional<double> rssi_dbm(std::uint32_t u, double t) override {
    return timed([&] { return inner_.rssi_dbm(u, t); });
  }
  std::optional<double> scan_rssi_dbm(std::uint32_t u, double t) override {
    return timed([&] { return inner_.scan_rssi_dbm(u, t); });
  }
  std::optional<double> tof_cycles(std::uint32_t u, double t) override {
    return timed([&] { return inner_.tof_cycles(u, t); });
  }
  std::optional<double> snr_db(std::uint32_t u, double t) override {
    if (counts_frames_) ++ctx_.frame;
    return timed([&] { return inner_.snr_db(u, t); });
  }
  std::optional<double> true_distance(std::uint32_t u, double t) override {
    return timed([&] { return inner_.true_distance(u, t); });
  }
  bool feedback_delivered(std::uint32_t u, double t) override {
    return timed([&] { return inner_.feedback_delivered(u, t); });
  }

  std::vector<double>& read_ns() { return read_ns_; }

 private:
  template <typename F>
  std::invoke_result_t<F&> timed(F&& read) {
    const std::int32_t parent = ctx_.current;
    const std::int32_t idx = ctx_.rec->open(name_, ctx_.frame, parent);
    ctx_.current = idx;
    const std::int64_t a = now_ns();
    auto v = read();
    const std::int64_t b = now_ns();
    ctx_.rec->end_at(idx, b);
    ctx_.current = parent;
    read_ns_.push_back(static_cast<double>(b - a));
    return v;
  }

  trace::ObservableSource& inner_;
  const char* name_;
  TraceCtx& ctx_;
  bool counts_frames_;
  std::vector<double> read_ns_;
};

/// Per-batch measurements; a batch records and then replays every link.
struct Batch {
  double setup_s = 0.0;
  double record_s = 0.0;
  double replay_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t allocs = 0;
  std::vector<std::uint64_t> link_records;
  std::vector<double> link_record_s, link_replay_s;  ///< per link
  std::uint64_t mismatched_links = 0;
  std::uint64_t mismatched_records = 0;
  // Traced batches only.
  std::vector<double> live_read_ns, source_read_ns;
};

/// Records every link live, then replays every recording strictly and
/// compares the two LinkSimResults field by field. With `rec`, reads are
/// timed through TimedSource decorators and each simulate_link call is a
/// span whose self time is the protocol loop's own work.
Batch run_batch(const std::vector<LinkSpec>& links, const LinkSimConfig& cfg,
                SpanRecorder* rec, CpuRotation* rotation = nullptr) {
  Batch b;
  const std::int64_t s0 = now_ns();
  std::vector<Scenario> scenarios;
  std::vector<std::unique_ptr<trace::LiveChannelSource>> lives;
  std::vector<std::unique_ptr<trace::TraceWriter>> writers;
  for (const LinkSpec& l : links) {
    Rng rng(l.seed);
    scenarios.push_back(make_scenario(l.cls, rng, l.options));
    lives.push_back(std::make_unique<trace::LiveChannelSource>(*scenarios.back().channel));
    writers.push_back(std::make_unique<trace::TraceWriter>(
        l.path, trace::RecordingSource::header_for(*lives.back(), ChannelConfig{})));
  }
  b.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

  const std::uint64_t allocs0 = alloc_count();
  std::vector<LinkSimResult> live_results(links.size());
  const std::int64_t r0 = now_ns();
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (rotation) rotation->next();
    const std::int64_t l0 = now_ns();
    trace::RecordingSource tee(*lives[i], *writers[i]);
    AtherosRa ra = make_mobility_aware_atheros_ra();
    Rng sim_rng(links[i].seed + 1);
    if (!rec) {
      live_results[i] = simulate_link(tee, ra, cfg, sim_rng, scenarios[i].truth);
    } else {
      TraceCtx ctx{rec};
      TimedSource live_timed(*lives[i], "chan.live_read", ctx, false);
      trace::RecordingSource timed_tee(live_timed, *writers[i]);
      TimedSource outer(timed_tee, "trace.record_read", ctx, true);
      ctx.current = rec->open("link.record", i);
      live_results[i] = simulate_link(outer, ra, cfg, sim_rng, scenarios[i].truth);
      rec->close(ctx.current);
      b.live_read_ns.insert(b.live_read_ns.end(), live_timed.read_ns().begin(),
                            live_timed.read_ns().end());
    }
    writers[i]->close();
    b.link_record_s.push_back(static_cast<double>(now_ns() - l0) / 1e9);
    b.link_records.push_back(writers[i]->records_written());
    b.records += writers[i]->records_written();
    b.frames += static_cast<std::uint64_t>(live_results[i].frames);
  }
  const std::int64_t r1 = now_ns();

  for (std::size_t i = 0; i < links.size(); ++i) {
    if (rotation) rotation->next();
    const std::int64_t l0 = now_ns();
    trace::TraceSource replay(links[i].path);  // strict
    AtherosRa ra = make_mobility_aware_atheros_ra();
    Rng sim_rng(links[i].seed + 1);
    LinkSimResult r;
    if (!rec) {
      r = simulate_link(replay, ra, cfg, sim_rng, scenarios[i].truth);
    } else {
      TraceCtx ctx{rec};
      TimedSource timed(replay, "trace.source_read", ctx, true);
      ctx.current = rec->open("link.replay", i);
      r = simulate_link(timed, ra, cfg, sim_rng, scenarios[i].truth);
      rec->close(ctx.current);
      b.source_read_ns.insert(b.source_read_ns.end(), timed.read_ns().begin(),
                              timed.read_ns().end());
    }
    b.link_replay_s.push_back(static_cast<double>(now_ns() - l0) / 1e9);
    b.frames += static_cast<std::uint64_t>(r.frames);
    if (result_mismatches(live_results[i], r) != 0) {
      ++b.mismatched_links;
      b.mismatched_records += b.link_records[i];
    }
  }
  const std::int64_t r2 = now_ns();
  b.allocs = alloc_count() - allocs0;
  b.record_s = static_cast<double>(r1 - r0) / 1e9;
  b.replay_s = static_cast<double>(r2 - r1) / 1e9;
  for (const LinkSpec& l : links) {
    std::error_code ec;
    b.bytes += std::filesystem::file_size(l.path, ec);
  }
  return b;
}

void remove_files(const std::vector<LinkSpec>& links) {
  for (const LinkSpec& l : links) std::remove(l.path.c_str());
}

/// Output checks: strict replay reproduces every live result, and every
/// batch records the same streams.
void check_batches(Result& res, const std::vector<Batch>& batches) {
  for (const Batch& b : batches) {
    res.check(b.mismatched_links == 0,
              "link-trace: strict replay differs from its live recording");
    res.check(b.link_records == batches.front().link_records,
              "link-trace: repeated recordings differ");
    res.attempted += 2 * b.records;
    res.failed += 2 * b.mismatched_records;
  }
}

/// One short link of each class at the default seed, checked in every run:
/// its record and frame counts are pinned, so a build whose link loop or
/// channel computes differently fails at any --seed.
constexpr std::uint64_t kPinnedRecords = 3556;
constexpr std::uint64_t kPinnedFrames = 2232;

void check_pinned(Result& res, const RunConfig& rc) {
  RunConfig tiny = rc;
  tiny.seed = kDefaultSeed;
  tiny.size = Size::kTiny;
  const auto links = link_specs(tiny, 1, "pinned");
  const Batch b = run_batch(links, link_config(), nullptr);
  remove_files(links);
  res.check(b.mismatched_links == 0 && b.records == kPinnedRecords &&
                b.frames == kPinnedFrames,
            "link-trace: the pinned default-seed reference links run differently");
}

}  // namespace

Result link_e2e(const RunConfig& rc) {
  simd::set_forced_precision(0);
  const auto links = link_specs(rc, rc.size == Size::kTiny ? 1 : 10, "e2e");
  const LinkSimConfig cfg = link_config();
  const std::size_t min_batches = rc.size == Size::kTiny ? 1 : 3;
  std::vector<Batch> batches;
  {
    CpuRotation rotation;
    const std::int64_t start = now_ns();
    while (batches.size() < min_batches ||
           static_cast<double>(now_ns() - start) / 1e9 < rc.seconds)
      batches.push_back(run_batch(links, cfg, nullptr, &rotation));
  }
  remove_files(links);

  Result res;
  check_batches(res, batches);
  check_pinned(res, rc);
  // Every batch records and replays the identical links, so each link's
  // fastest batch is its cost with the least interference from other load
  // on the host; the rates divide all records by the sum of those minima.
  double record_s = 0.0, replay_s = 0.0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    double rec_best = batches.front().link_record_s[i];
    double rep_best = batches.front().link_replay_s[i];
    for (const Batch& b : batches) {
      rec_best = std::min(rec_best, b.link_record_s[i]);
      rep_best = std::min(rep_best, b.link_replay_s[i]);
    }
    record_s += rec_best;
    replay_s += rep_best;
  }
  const double records = static_cast<double>(batches.front().records);
  std::vector<double> setups;
  for (const Batch& b : batches) setups.push_back(b.setup_s);
  res.add("setup_s", median(setups), "s");
  res.add("ops_per_s", records / replay_s, "1/s");
  res.add("op_us_p50", replay_s * 1e6 / records, "us");
  res.add("aux_per_s", records / record_s, "1/s");
  return res;
}

Result link_traced(const RunConfig& rc, SpanRecorder& rec) {
  simd::set_forced_precision(0);
  const auto links = link_specs(rc, 1, "traced");
  const LinkSimConfig cfg = link_config();
  const Batch plain = run_batch(links, cfg, nullptr);
  rec.set_track(kTrackLink);
  Batch traced = run_batch(links, cfg, &rec);

  Result res;
  check_batches(res, {plain, traced});
  check_pinned(res, rc);

  // Protocol self time: each simulate_link span minus its source reads.
  const std::vector<Span>& spans = rec.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  const double protocol_ns = static_cast<double>(total_self_ns(spans, self, "link.record") +
                                                 total_self_ns(spans, self, "link.replay"));

  // Trace layer probes over the recordings: decode every record, then
  // re-write the decoded records through a TraceWriter.
  std::uint64_t records = 0;
  double read_ns = 0.0, write_ns = 0.0;
  for (const LinkSpec& l : links) {
    std::vector<trace::TraceRecord> decoded;
    trace::TraceHeader header;
    {
      const std::int64_t a = now_ns();
      trace::TraceReader reader(l.path);
      trace::TraceRecord r;
      while (reader.next(r)) ++records;
      read_ns += static_cast<double>(now_ns() - a);
    }
    {
      trace::TraceReader reader(l.path);
      header = reader.header();
      trace::TraceRecord r;
      while (reader.next(r)) decoded.push_back(r);
    }
    const std::string copy = l.path + ".rewrite";
    const std::int64_t a = now_ns();
    {
      trace::TraceWriter w(copy, header);
      for (const trace::TraceRecord& r : decoded) {
        if (!r.present) {
          w.put_absent(r.kind, r.unit, r.t);
        } else if (trace::is_matrix_kind(r.kind)) {
          w.put_csi(r.kind, r.unit, r.t, r.csi);
        } else {
          w.put_scalar(r.kind, r.unit, r.t, r.scalar);
        }
      }
      w.close();
    }
    write_ns += static_cast<double>(now_ns() - a);
    std::remove(copy.c_str());
  }
  remove_files(links);
  res.check(records == traced.records, "link-trace: decoded record count differs");

  const double n = static_cast<double>(traced.records);
  res.add("chan.live_read_ns", iq_mean(traced.live_read_ns), "ns");
  res.add("trace.source_read_ns", iq_mean(traced.source_read_ns), "ns");
  res.add("trace.read_ns_per_record", read_ns / static_cast<double>(records), "ns");
  res.add("trace.write_ns_per_record", write_ns / static_cast<double>(records), "ns");
  res.add("trace.bytes_per_record", static_cast<double>(traced.bytes) / n, "bytes");
  res.add("link.protocol_ns_per_frame", protocol_ns / static_cast<double>(traced.frames),
          "ns");
  res.add("link-trace.allocs_per_op", static_cast<double>(plain.allocs) / (2.0 * n),
          "count");
  res.add("link-trace.trace_overhead_pct",
          overhead_pct((plain.record_s + plain.replay_s) / n,
                       (traced.record_s + traced.replay_s) / n),
          "%");
  return res;
}

}  // namespace perfbench
