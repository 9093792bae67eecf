// restart: a store of many minutes, checkpointed incrementally after a
// fixed churn (fsync on, as the daemon runs it), then restored into a
// fresh service, which serves its first investigation. All calls come
// from the one control thread, as the daemon's timers would make them.
// The page cache stays warm: nothing here may drop it.
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "checks.h"
#include "phases.h"
#include "store/segment_store.h"
#include "system/service.h"

namespace perfbench {

namespace {

using viewmap::kUnitTimeSec;
using viewmap::sys::ViewMapService;

viewmap::sys::ServiceConfig service_config(const RestartPlan& plan) {
  viewmap::sys::ServiceConfig cfg;
  cfg.rsa_bits = 512;  // the reward path is not exercised
  cfg.ingest.threads = plan.ingest_workers;
  cfg.viewmap.build_threads = 1;
  cfg.viewmap.link_radius_m = plan.downtown.link_radius;
  cfg.index.retention.window_sec = static_cast<TimeSec>(plan.minutes - 1) * kUnitTimeSec;
  return cfg;
}

/// One minute of the store: a linked downtown (with its authority VPs
/// and sites) plus unlinked traffic across the city, as upload batches.
struct Minute {
  DowntownMinute downtown;
  std::vector<viewmap::vp::ViewProfile> trusted;
  std::vector<std::vector<std::vector<std::uint8_t>>> batches;
};

/// Removes whatever `dir` holds (a store left by an interrupted run).
std::string emptied(std::string dir) {
  std::filesystem::remove_all(dir);
  return dir;
}

Minute make_store_minute(const RestartPlan& plan, TimeSec minute, std::uint64_t seed,
                         std::size_t batches, unsigned threads) {
  Minute out;
  out.downtown = std::move(make_downtown(plan.downtown, minute, 1, seed, 1).front());
  viewmap::Rng rng(mix_seed(seed, 0xc17e, static_cast<std::uint64_t>(minute)));
  std::vector<viewmap::vp::ViewProfile> anon;
  for (std::size_t i = 0; i < out.downtown.profiles.size(); ++i)
    (out.downtown.trusted[i] ? out.trusted : anon).push_back(std::move(out.downtown.profiles[i]));
  out.downtown.profiles = {};
  for (std::size_t i = 0; i < plan.city_vps; ++i)
    anon.push_back(make_traffic_vp(minute, plan.city, 3, 25, rng).profile);
  auto payloads = serialize_all(anon, threads);
  out.batches.resize(batches);
  for (std::size_t i = 0; i < payloads.size(); ++i)
    out.batches[i * batches / payloads.size()].push_back(std::move(payloads[i]));
  return out;
}

/// The restart phase: one round is a churn minute arriving in
/// checkpoints_per_round batches, each followed by a timed incremental
/// checkpoint, then a timed restore into a fresh service up to its first
/// report, and the round's checks.
class RestartPhase final : public Phase {
 public:
  RestartPhase(const RunOptions& opt, const RestartPlan& plan)
      : opt_(opt), plan_(plan), cfg_(service_config(plan)),
        dir_(emptied(opt.scratch_dir + "/store")), store_(dir_), live_(cfg_) {
    // Fill the store's minutes, seal a full checkpoint, and run one
    // untimed restore (the first recover() after a checkpoint is slower).
    std::vector<Minute> initial(plan_.minutes);
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t k; (k = next.fetch_add(1)) < plan_.minutes;)
        initial[k] = make_store_minute(plan_, kEpoch + static_cast<TimeSec>(k) * kUnitTimeSec,
                                       opt_.seed, 1, 1);
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < 3; ++t) pool.emplace_back(worker);
    worker();
    for (auto& th : pool) th.join();
    for (std::size_t k = 0; k < plan_.minutes; ++k)
      admit(initial[k], kEpoch + static_cast<TimeSec>(k) * kUnitTimeSec, false);
    (void)live_.checkpoint(store_);
    ViewMapService warm(cfg_);
    (void)warm.restore_from(store_);
  }

  ~RestartPhase() override { std::filesystem::remove_all(dir_); }
  RestartPhase(const RestartPhase&) = delete;
  RestartPhase& operator=(const RestartPhase&) = delete;

  void round() override {
    const TimeSec minute =
        kEpoch + static_cast<TimeSec>(plan_.minutes + round_) * kUnitTimeSec;
    Minute m = make_store_minute(plan_, minute, opt_.seed, plan_.checkpoints_per_round, 4);
    admit(m, minute, true);

    // The investigation the restarted service must answer identically:
    // site 0 of a full, retained downtown minute.
    const DowntownMinute& q = truth_[truth_.size() - 3];
    const geo::Rect site = site_rect(q.sites.front(), 0, 0);
    const auto before = fingerprint(live_.investigate(site, q.minute));
    const auto live_snap = live_.database().snapshot();
    const auto live_digests = live_snap.shard_digests();

    // Restart: a fresh service (constructed untimed) restores the store
    // and serves its first report.
    auto restored = std::make_unique<ViewMapService>(cfg_);
    const auto t0 = SteadyClock::now();
    viewmap::store::RecoveryStats rs;
    std::optional<viewmap::sys::InvestigationReport> first;
    {
      ScopedSpan span(opt_.trace, "restart", round_);
      rs = restored->restore_from(store_);
      first.emplace(restored->investigate(site, q.minute));
    }
    restart_s_.push_back(seconds_since(t0));
    const auto after = fingerprint(*first);
    first.reset();
    recs_.push_back(rs);
    out_.attempted += 1;

    const auto snap = restored->database().snapshot();
    for (const auto& e :
         {check_digests(live_digests, snap.shard_digests()),
          check_db_size(expected_size_, snap.size()), check_same_report(before, after)})
      if (!e.empty()) out_.errors.push_back("restart: " + e);
    if (const auto shard = snap.shard(q.minute))
      if (auto e = check_shard_bytes(*shard, live_snap.shard(q.minute)->content_digest());
          !e.empty())
        out_.errors.push_back("restart: " + e);

    if (opt_.trace != nullptr) {
      // First bloom_probes() of profiles no investigation has touched:
      // the oldest retained minute of the restored database.
      if (const auto untouched = snap.shard(truth_.front().minute)) {
        std::size_t n = 0;
        const auto t1 = SteadyClock::now();
        for (const auto& [id, p] : untouched->profiles) {
          (void)p->bloom_probes();
          if (++n == 2000) break;
        }
        opt_.trace->add("vp.bloom_probes", round_, t1, static_cast<double>(n));
      }
    }
    ++round_;
  }

  PhaseResult finish() override {
    out_.e2e["checkpoint_ms"] = median(checkpoint_ms_);
    out_.e2e["restart_s"] = median(restart_s_);
    out_.e2e["ingest_vps_per_s"] = median(batch_rate_);
    out_.e2e["ingest_batch_p50_ms"] = median(batch_ms_);
    if (opt_.trace != nullptr) {
      std::vector<double> bytes, segs, read, validate, parse, adopt;
      for (const auto& c : ckpts_) {
        bytes.push_back(static_cast<double>(c.bytes_written));
        segs.push_back(static_cast<double>(c.segments_written));
      }
      for (const auto& r : recs_) {
        read.push_back(static_cast<double>(r.read_us) / 1e3);
        validate.push_back(static_cast<double>(r.validate_us) / 1e3);
        parse.push_back(static_cast<double>(r.parse_us) / 1e3);
        adopt.push_back(static_cast<double>(r.adopt_us) / 1e3);
      }
      auto& l = out_.layer;
      if (!ckpts_.empty() && expected_size_ > 0)
        l["store.bytes_per_vp"] = static_cast<double>(ckpts_.back().segment_bytes_total) /
                                  static_cast<double>(expected_size_);
      l["store.checkpoint_bytes"] = median(bytes);
      l["store.segments_written"] = median(segs);
      l["store.recover_read_ms"] = median(read);
      l["store.recover_validate_ms"] = median(validate);
      l["store.recover_parse_ms"] = median(parse);
      l["store.recover_adopt_ms"] = median(adopt);
      const double n = opt_.trace->total_count("vp.bloom_probes");
      l["vp.bloom_probes_us_per_vp"] = n > 0 ? opt_.trace->total_us("vp.bloom_probes") / n : 0;
    }
    return std::move(out_);
  }

 private:
  /// Admits one minute through the service's public paths, checking each
  /// batch's tally; in a `timed` (measured) minute every batch feeds the
  /// ingest metrics and is followed by a timed checkpoint.
  void admit(Minute& m, TimeSec minute, bool timed) {
    live_.advance_clock(minute);
    for (auto& p : m.trusted)
      if (!live_.register_trusted(std::move(p)))
        out_.errors.push_back("restart: authority VP refused");
    expected_size_ += m.trusted.size();
    stored_[minute] += m.trusted.size();
    for (std::size_t b = 0; b < m.batches.size(); ++b) {
      IngestTally tally;
      tally.accepted = m.batches[b].size();
      const TimeSec cutoff = minute - cfg_.index.retention.window_sec;
      for (auto it = stored_.begin(); it != stored_.end() && it->first < cutoff;) {
        tally.evicted += it->second;
        expected_size_ -= it->second;
        it = stored_.erase(it);
      }
      for (auto& p : m.batches[b]) live_.upload_channel().submit(std::move(p));
      const auto t0 = SteadyClock::now();
      {
        ScopedSpan span(timed ? opt_.trace : nullptr, "ingest_uploads", b);
        live_.ingest_uploads();
      }
      if (timed) {
        const double dt = seconds_since(t0);
        batch_ms_.push_back(dt * 1e3);
        batch_rate_.push_back(static_cast<double>(live_.last_ingest().accepted) / dt);
      }
      if (auto e = check_ingest_tally(tally, live_.last_ingest()); !e.empty())
        out_.errors.push_back("restart: " + e);
      expected_size_ += tally.accepted;
      stored_[minute] += tally.accepted;
      if (!timed) continue;
      const auto t1 = SteadyClock::now();
      viewmap::store::CheckpointStats cs;
      {
        ScopedSpan span(opt_.trace, "checkpoint", b);
        cs = live_.checkpoint(store_);
      }
      checkpoint_ms_.push_back(seconds_since(t1) * 1e3);
      ckpts_.push_back(cs);
      out_.attempted += 1;
    }
    truth_.push_back(std::move(m.downtown));
    if (truth_.size() > plan_.minutes) truth_.erase(truth_.begin());
  }

  const RunOptions& opt_;
  RestartPlan plan_;
  viewmap::sys::ServiceConfig cfg_;
  std::string dir_;
  viewmap::store::SegmentStore store_;  ///< fsync on, the default
  ViewMapService live_;
  PhaseResult out_;
  std::size_t round_ = 0;
  std::map<TimeSec, std::size_t> stored_;  ///< the generator's per-minute tally
  std::size_t expected_size_ = 0;
  std::vector<DowntownMinute> truth_;      ///< downtown ground truth per retained minute
  std::vector<double> batch_ms_, batch_rate_, checkpoint_ms_, restart_s_;
  std::vector<viewmap::store::CheckpointStats> ckpts_;
  std::vector<viewmap::store::RecoveryStats> recs_;
};

}  // namespace

std::unique_ptr<Phase> make_restart_phase(const RunOptions& opt, const RestartPlan& plan) {
  return std::make_unique<RestartPhase>(opt, plan);
}

}  // namespace perfbench
