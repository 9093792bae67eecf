// ingest_live: the upload stream as it arrives. Almost every upload
// claims the live minute; a fixed share per batch is re-delivered
// (duplicate), claims the previous minute, or is late (untimely). The
// trusted clock advances minute by minute and retention evicts the
// oldest minute. Only the anonet, vp and index layers do work here.
#include <algorithm>
#include <map>
#include <thread>

#include "anonet/channel.h"
#include "checks.h"
#include "index/ingest_engine.h"
#include "obs/metrics.h"
#include "phases.h"
#include "system/service.h"

namespace perfbench {

namespace {

using viewmap::kUnitTimeSec;

/// Generator threads; they run only while no ingest worker does.
constexpr unsigned kGenThreads = 4;

/// One generated batch: payloads in upload order plus the generator's
/// expectations and the ids/trips of the VPs it expects accepted.
struct Batch {
  std::vector<std::vector<std::uint8_t>> payloads;
  IngestTally tally;  ///< evicted is filled in by the caller
  std::vector<std::pair<TimeSec, std::pair<Id16, Trip>>> accepted;
};

/// Batch `b` of minute `live` (b counts batches from the phase's start).
Batch make_batch(const IngestPlan& plan, std::uint64_t seed, std::uint64_t b, TimeSec live) {
  const std::size_t fresh_live =
      plan.batch - plan.duplicates - plan.late - plan.previous;
  const std::size_t fresh = fresh_live + plan.previous;
  const TimeSec retention = static_cast<TimeSec>(plan.retained_minutes - 1) * kUnitTimeSec;
  std::vector<std::vector<std::uint8_t>> made(fresh + plan.late);
  std::vector<Trip> trips(made.size());
  std::vector<Id16> ids(made.size());
  constexpr std::size_t kSlice = 128;
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t s; (s = next.fetch_add(1)) * kSlice < made.size();) {
      viewmap::Rng rng(mix_seed(seed, 0x1a9e57 + b, s));
      for (std::size_t i = s * kSlice; i < std::min(made.size(), (s + 1) * kSlice); ++i) {
        const TimeSec minute = i < fresh_live ? live
                               : i < fresh    ? live - kUnitTimeSec
                                              : live - retention - 6 * kUnitTimeSec;
        GenVp g = make_traffic_vp(minute, plan.city, 3, 25, rng);
        made[i] = g.profile.serialize();
        trips[i] = g.trip;
        ids[i] = g.profile.vp_id();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < kGenThreads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();

  Batch out;
  out.tally.accepted = fresh;
  out.tally.duplicate = plan.duplicates;
  out.tally.untimely = plan.late;
  for (std::size_t i = 0; i < fresh; ++i)
    out.accepted.push_back({i < fresh_live ? live : live - kUnitTimeSec, {ids[i], trips[i]}});
  // Re-deliveries repeat uploads of this same batch, spread across it.
  viewmap::Rng pick(mix_seed(seed, 0xd0b1e, b));
  out.payloads = std::move(made);
  for (std::size_t d = 0; d < plan.duplicates; ++d)
    out.payloads.push_back(out.payloads[pick.index(fresh)]);
  return out;
}

viewmap::sys::ServiceConfig service_config(const IngestPlan& plan) {
  viewmap::sys::ServiceConfig cfg;
  cfg.rsa_bits = 512;  // the reward path is not exercised
  cfg.ingest.threads = plan.workers;
  cfg.index.retention.window_sec =
      static_cast<TimeSec>(plan.retained_minutes - 1) * kUnitTimeSec;
  return cfg;
}

/// Replays `batches` batches layer by layer through the public calls,
/// with spans from this file around each (traced runs only).
void replay_layers(const IngestPlan& plan, const RunOptions& opt, std::size_t batches,
                   PhaseResult& out) {
  SpanLog& log = *opt.trace;
  const viewmap::vp::VpUploadPolicy policy;
  const auto cfg = service_config(plan);
  viewmap::index::TimelineConfig tcfg = cfg.index;
  tcfg.metrics = nullptr;

  // Regenerates the phase's first batches (same seeds ⇒ same payloads).
  const auto batch_at = [&](std::size_t b) {
    const TimeSec live = kEpoch + static_cast<TimeSec>(b / plan.batches_per_minute) * kUnitTimeSec;
    return std::pair{make_batch(plan, opt.seed, b, live), live};
  };

  // anonet / vp: drain, parse and screen on one thread.
  {
    viewmap::index::VpTimeline screen_clock(tcfg);
    for (std::size_t b = 0; b < batches; ++b) {
      auto [batch, live] = batch_at(b);
      screen_clock.advance_clock(live);
      const double n = static_cast<double>(batch.payloads.size());
      viewmap::anonet::AnonymousChannel channel(opt.seed + b);
      for (auto& p : batch.payloads) channel.submit(std::move(p));
      std::vector<viewmap::anonet::Delivery> got;
      {
        ScopedSpan s(&log, "anonet.drain", b, n);
        got = channel.drain();
      }
      std::vector<viewmap::vp::ViewProfile> parsed;
      parsed.reserve(got.size());
      {
        ScopedSpan s(&log, "vp.parse", b, n);
        for (const auto& d : got) parsed.push_back(viewmap::vp::ViewProfile::parse(d.payload));
      }
      std::size_t ok = 0;
      {
        ScopedSpan s(&log, "vp.screen", b, n);
        for (const auto& p : parsed)
          ok += policy.well_formed(p) && screen_clock.admissible(p.unit_time());
      }
      if (ok != batch.tally.accepted + batch.tally.duplicate)
        out.errors.push_back("replay: screen admitted an unexpected number of uploads");
    }
  }

  // index: commit at the workload's worker count and at one worker,
  // each into its own timeline; then each replayed minute is evicted.
  for (const unsigned workers : {plan.workers, 1u}) {
    const char* name = workers == 1 ? "index.commit_1w" : "index.commit";
    viewmap::index::VpTimeline timeline(tcfg);
    for (std::size_t b = 0; b < batches; ++b) {
      auto [batch, live] = batch_at(b);
      if (b % plan.batches_per_minute == 0) timeline.advance_clock(live);
      std::vector<viewmap::vp::ViewProfile> parsed;
      for (std::size_t i = 0; i < batch.payloads.size() - plan.duplicates; ++i)
        if (viewmap::vp::ViewProfile p = viewmap::vp::ViewProfile::parse(batch.payloads[i]);
            timeline.admissible(p.unit_time()))
          parsed.push_back(std::move(p));
      std::atomic<std::size_t> inserted{0};
      const auto commit = [&](std::size_t lo, std::size_t hi) {
        const auto t0 = SteadyClock::now();
        std::size_t ok = 0;
        for (std::size_t i = lo; i < hi; ++i) ok += timeline.insert(std::move(parsed[i]), false);
        log.add(name, b, t0, static_cast<double>(hi - lo));
        inserted += ok;
      };
      std::vector<std::thread> pool;
      const std::size_t n = parsed.size();
      for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(commit, n * w / workers, n * (w + 1) / workers);
      for (auto& th : pool) th.join();
      if (inserted != batch.tally.accepted)
        out.errors.push_back("replay: commit inserted an unexpected number of VPs");
    }
    if (workers == 1) continue;
    // Eviction of each replayed (full) minute in turn, oldest first.
    const std::size_t minutes = (batches + plan.batches_per_minute - 1) / plan.batches_per_minute;
    const TimeSec retention = static_cast<TimeSec>(plan.retained_minutes - 1) * kUnitTimeSec;
    for (std::size_t m = 0; m < minutes; ++m) {
      timeline.advance_clock(kEpoch + retention + static_cast<TimeSec>(m + 1) * kUnitTimeSec);
      const auto t0 = SteadyClock::now();
      const std::size_t evicted = timeline.enforce_retention();
      log.add("index.evict", m, t0, static_cast<double>(evicted));
    }
  }

  // obs: the same batches through an engine wired to a registry and one
  // wired to none, alternating which goes first; twice the batches of the
  // other replays, since the difference sought is a few percent.
  {
    viewmap::obs::MetricsRegistry registry;
    viewmap::index::VpTimeline wired_tl(tcfg), null_tl(tcfg);
    viewmap::index::IngestConfig wired_cfg = cfg.ingest;
    wired_cfg.metrics = &registry;
    viewmap::index::IngestConfig null_cfg = cfg.ingest;
    null_cfg.metrics = nullptr;
    viewmap::index::IngestEngine wired(wired_tl, policy, wired_cfg);
    viewmap::index::IngestEngine unwired(null_tl, policy, null_cfg);
    for (std::size_t b = 0; b < 2 * batches; ++b) {
      auto [batch, live] = batch_at(b);
      wired_tl.advance_clock(live);
      null_tl.advance_clock(live);
      auto copy = batch.payloads;
      for (int k = 0; k < 2; ++k) {
        const bool wired_turn = (b + k) % 2 == 0;
        const auto t0 = SteadyClock::now();
        if (wired_turn)
          wired.ingest(std::move(copy));
        else
          unwired.ingest(std::move(batch.payloads));
        log.add(wired_turn ? "obs.ingest_wired" : "obs.ingest_null", b, t0);
      }
    }
  }

  const auto per_vp = [&](const char* name) {
    const double n = log.total_count(name);
    return n > 0 ? log.total_us(name) / n : 0.0;
  };
  out.layer["anonet.drain_us_per_vp"] = per_vp("anonet.drain");
  out.layer["vp.parse_us_per_vp"] = per_vp("vp.parse");
  out.layer["vp.screen_us_per_vp"] = per_vp("vp.screen");
  out.layer["index.commit_us_per_vp"] = per_vp("index.commit");
  out.layer["index.commit_us_per_vp_1w"] = per_vp("index.commit_1w");
  out.layer["index.evict_ms"] = median(log.durations("index.evict")) / 1e3;
  const double wired_us = log.total_us("obs.ingest_wired");
  const double null_us = log.total_us("obs.ingest_null");
  out.layer["obs.ingest_overhead_pct"] = null_us > 0 ? (wired_us / null_us - 1) * 100 : 0;
}

/// The ingest phase: one round is one minute of upload batches.
class IngestPhase final : public Phase {
 public:
  IngestPhase(const RunOptions& opt, const IngestPlan& plan)
      : opt_(opt), p_(plan), service_(service_config(plan)),
        retention_(static_cast<TimeSec>(plan.retained_minutes - 1) * kUnitTimeSec) {}

  void round() override {
    const TimeSec live = kEpoch + static_cast<TimeSec>(minute_++) * kUnitTimeSec;
    service_.advance_clock(live);
    for (std::size_t k = 0; k < p_.batches_per_minute; ++k, ++b_) {
      Batch batch = make_batch(p_, opt_.seed, b_, live);
      // The generator's own retention: minutes older than clock − window go.
      for (auto it = retained_.begin(); it != retained_.end() && it->first < live - retention_;) {
        batch.tally.evicted += it->second.size();
        expected_size_ -= it->second.size();
        it = retained_.erase(it);
      }
      for (auto& [m, rec] : batch.accepted) retained_[m].push_back(rec);
      expected_size_ += batch.tally.accepted;
      for (auto& payload : batch.payloads) service_.upload_channel().submit(std::move(payload));

      const auto t0 = SteadyClock::now();
      std::size_t accepted = 0;
      {
        ScopedSpan span(opt_.trace, "ingest_uploads", b_);
        accepted = service_.ingest_uploads();
      }
      const double dt = seconds_since(t0);
      batch_ms_.push_back(dt * 1e3);
      batch_rate_.push_back(static_cast<double>(accepted) / dt);

      out_.attempted += p_.batch;
      const auto stats = service_.last_ingest();
      if (auto e = check_ingest_tally(batch.tally, stats); !e.empty()) {
        out_.errors.push_back("ingest_live: " + e);
        const auto short_of = [](std::size_t want, std::size_t got) {
          return want > got ? want - got : 0;
        };
        out_.failed += short_of(batch.tally.accepted, stats.accepted) +
                       short_of(batch.tally.duplicate, stats.rejected_duplicate) +
                       short_of(batch.tally.untimely, stats.rejected_untimely);
      }
    }
  }

  PhaseResult finish() override {
    // Size and sampled query checks against the generator's own record
    // of what should be stored.
    const auto snap = service_.database().snapshot();
    if (auto e = check_db_size(expected_size_, snap.size()); !e.empty())
      out_.errors.push_back("ingest_live: " + e);
    viewmap::Rng rng(mix_seed(opt_.seed, 0x9e77, 0));
    for (const auto& [minute, recs] : retained_)
      for (int q = 0; q < 2; ++q) {
        const double x = rng.uniform(p_.city.min.x, p_.city.max.x - 600);
        const double y = rng.uniform(p_.city.min.y, p_.city.max.y - 600);
        const geo::Rect site{{x, y}, {x + 600, y + 600}};
        std::vector<Id16> expected;
        for (const auto& [id, trip] : recs)
          if (trip.visits(site)) expected.push_back(id);
        std::vector<Id16> actual;
        for (const auto* vp : snap.query(minute, site)) actual.push_back(vp->vp_id());
        std::sort(expected.begin(), expected.end());
        std::sort(actual.begin(), actual.end());
        if (auto e = check_query(expected, actual); !e.empty())
          out_.errors.push_back("ingest_live: " + e);
      }

    out_.e2e["ingest_vps_per_s"] = median(batch_rate_);
    out_.e2e["ingest_batch_p50_ms"] = median(batch_ms_);
    if (opt_.trace != nullptr) replay_layers(p_, opt_, p_.replay_batches, out_);
    return std::move(out_);
  }

 private:
  const RunOptions& opt_;
  IngestPlan p_;
  viewmap::sys::ViewMapService service_;
  TimeSec retention_;
  std::size_t minute_ = 0;
  std::uint64_t b_ = 0;
  std::map<TimeSec, std::vector<std::pair<Id16, Trip>>> retained_;  // expected contents
  std::size_t expected_size_ = 0;
  std::vector<double> batch_ms_, batch_rate_;
  PhaseResult out_;
};

}  // namespace

std::unique_ptr<Phase> make_ingest_phase(const RunOptions& opt, const IngestPlan& plan) {
  return std::make_unique<IngestPhase>(opt, plan);
}

}  // namespace perfbench
