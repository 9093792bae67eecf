// investigate_cold and investigate_hot: closed-loop investigations
// through the InvestigationServer over a quiescent (cold) or live (hot)
// dense downtown. Requests run in measured windows; every report is
// checked between windows, outside the measured time.
//
// cold: distinct (site, minute) keys — each request jitters its site —
//   so every request misses the result cache; 3 server workers × 1
//   build thread, one driving thread keeping 3 requests in flight.
// hot: a Zipf-skewed mix over (site, minute) keys whose results take
//   more bytes than the cache holds; 1 server worker × 2 build threads,
//   one driving thread with 1 request in flight, one ingest thread
//   (engine at 1 worker) admitting live-minute uploads during every
//   window. Late uploads into queried minutes arrive only between
//   windows, so the hit/miss sequence follows from the seed. A cache-off
//   twin service fed the identical inputs fingerprints every report.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "checks.h"
#include "phases.h"
#include "system/investigation_server.h"
#include "system/service.h"

namespace perfbench {

namespace {

using viewmap::kUnitTimeSec;
using viewmap::sys::InvestigationReport;
using viewmap::sys::ViewMapService;

viewmap::sys::ServiceConfig service_config(const InvestigatePlan& plan, bool cache_on) {
  viewmap::sys::ServiceConfig cfg;
  cfg.rsa_bits = 512;  // the reward path is not exercised
  cfg.viewmap.build_threads = plan.build_threads;
  cfg.viewmap.link_radius_m = plan.spec.link_radius;
  cfg.ingest.threads = 1;
  if (plan.hot) cfg.result_cache.capacity_bytes = plan.cache_bytes;
  cfg.result_cache.enabled = cache_on;
  return cfg;
}

/// Loads the downtown into `svc`: authority VPs over the authenticated
/// path, everything else through the anonymous upload path.
void load(ViewMapService& svc, const std::vector<DowntownMinute>& minutes,
          PhaseResult& out) {
  std::size_t expected = 0;
  for (const auto& m : minutes) {
    for (std::size_t i = 0; i < m.profiles.size(); ++i)
      if (m.trusted[i]) expected += svc.register_trusted(m.profiles[i]);
    std::vector<viewmap::vp::ViewProfile> rest;
    for (std::size_t i = 0; i < m.profiles.size(); ++i)
      if (!m.trusted[i]) rest.push_back(m.profiles[i]);
    for (auto& p : serialize_all(rest, 4)) svc.upload_channel().submit(std::move(p));
    expected += rest.size();
    svc.ingest_uploads();
  }
  if (svc.database().size() != expected)
    out.errors.push_back("downtown load: " + check_db_size(expected, svc.database().size()));
}

/// Touches every stored profile's memoized Bloom probe table, on 4
/// threads — the lazy set-up a quiescent service has long finished.
void warm_probes(const ViewMapService& svc) {
  const auto snap = svc.database().snapshot();
  const auto all = snap.all();
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < all.size();) (void)all[i]->bloom_probes();
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 3; ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();
}

struct Key {
  std::size_t minute = 0;  ///< index into the generated minutes
  std::size_t site = 0;
  double jx = 0, jy = 0;
};

/// Draws request keys: uniform distinct-jitter keys (cold) or a Zipf
/// mix over the unjittered (minute, site) universe (hot).
class KeyStream {
 public:
  KeyStream(const InvestigatePlan& plan, const std::vector<DowntownMinute>& minutes,
            std::uint64_t seed)
      : hot_(plan.hot), rng_(mix_seed(seed, 0x4e75, plan.hot)) {
    for (std::size_t m = 0; m < minutes.size(); ++m)
      for (std::size_t s = 0; s < minutes[m].sites.size(); ++s) universe_.push_back({m, s});
    // Popularity rank → key: a seeded permutation.
    for (std::size_t i = universe_.size(); i > 1; --i)
      std::swap(universe_[i - 1], universe_[rng_.index(i)]);
    double acc = 0;
    for (std::size_t r = 0; r < universe_.size(); ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), plan.zipf_s);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }
  Key next() {
    if (!hot_) {
      Key k = universe_[cursor_++ % universe_.size()];
      k.jx = rng_.uniform(-kSiteJitter, kSiteJitter);
      k.jy = rng_.uniform(-kSiteJitter, kSiteJitter);
      return k;
    }
    const double u = rng_.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return universe_[std::min<std::size_t>(it - cdf_.begin(), universe_.size() - 1)];
  }

 private:
  bool hot_;
  viewmap::Rng rng_;
  std::vector<Key> universe_;
  std::vector<double> cdf_;
  std::size_t cursor_ = 0;
};

/// The ingest side of investigate_hot: a thread that, once per window,
/// admits a fixed number of live-minute upload batches, then reports
/// done. The amount of work per window never depends on scheduling.
class LiveIngest {
 public:
  explicit LiveIngest(ViewMapService& svc, SpanLog* trace) : svc_(svc), trace_(trace) {
    thread_ = std::thread([this] { loop(); });
  }
  ~LiveIngest() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  LiveIngest(const LiveIngest&) = delete;
  LiveIngest& operator=(const LiveIngest&) = delete;

  void start(std::vector<std::vector<std::vector<std::uint8_t>>> batches, std::uint64_t window) {
    {
      std::lock_guard lock(mu_);
      batches_ = std::move(batches);
      window_ = window;
      busy_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return !busy_; });
  }
  // Read only between windows (after wait()).
  std::vector<double> batch_ms, batch_rate;
  std::size_t accepted = 0;
  std::size_t expected = 0;

 private:
  void loop() {
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || busy_; });
      if (stop_) return;
      auto batches = std::move(batches_);
      const std::uint64_t window = window_;
      lock.unlock();
      for (auto& batch : batches) {
        expected += batch.size();
        for (auto& p : batch) svc_.upload_channel().submit(std::move(p));
        const auto t0 = SteadyClock::now();
        std::size_t ok = 0;
        {
          ScopedSpan span(trace_, "ingest_uploads", window);
          ok = svc_.ingest_uploads();
        }
        const double dt = seconds_since(t0);
        accepted += ok;
        batch_ms.push_back(dt * 1e3);
        batch_rate.push_back(static_cast<double>(ok) / dt);
      }
      lock.lock();
      busy_ = false;
      cv_.notify_all();
    }
  }

  ViewMapService& svc_;
  SpanLog* trace_;
  std::mutex mu_;  ///< guards batches_, window_, busy_, stop_
  std::condition_variable cv_;
  std::vector<std::vector<std::vector<std::uint8_t>>> batches_;
  std::uint64_t window_ = 0;
  bool busy_ = false;
  bool stop_ = false;
  std::thread thread_;  // last: started after the members above exist
};

/// One served request, kept until the window's checks ran.
struct Served {
  Key key;
  geo::Rect site;
  std::uint64_t epoch = 0;  ///< late-upload epoch of the key's minute
  InvestigationReport report;
};

/// Replays one served request layer by layer through the public calls,
/// with spans from this file around each (traced runs only).
void replay(const ViewMapService& svc, const viewmap::sys::ServiceConfig& cfg,
            const Served& s, TimeSec minute, std::uint64_t id, SpanLog& log) {
  viewmap::sys::DbSnapshot snap;
  {
    ScopedSpan span(&log, "index.snapshot", id);
    snap = svc.database().snapshot();
  }
  {
    const auto t0 = SteadyClock::now();
    const auto trusted = snap.trusted_at(minute);
    const auto members = snap.query(minute, s.report.viewmap.coverage());
    log.add("index.query", id, t0, static_cast<double>(members.size()));
  }
  const viewmap::sys::ViewmapBuilder builder(cfg.viewmap);
  std::optional<viewmap::sys::Viewmap> map;
  {
    const auto t0 = SteadyClock::now();
    map.emplace(builder.build(snap, s.site, minute));
    log.add("system.viewmap.build", id, t0, static_cast<double>(map->edge_count()));
  }
  viewmap::sys::TrustRankResult ranks;
  {
    const auto t0 = SteadyClock::now();
    ranks = viewmap::sys::trust_rank(*map, cfg.trustrank);
    log.add("system.trustrank", id, t0, ranks.iterations);
  }
  viewmap::sys::Algorithm1Verdict verdict;
  {
    ScopedSpan span(&log, "system.verifier.algorithm1", id);
    const auto x = map->members_visiting(s.site);
    verdict = viewmap::sys::algorithm1(map->graph(), ranks.scores, x);
  }
  {
    viewmap::sys::NoticeBoard board;
    ScopedSpan span(&log, "system.solicit", id);
    for (std::size_t i : verdict.legitimate)
      if (!map->is_trusted(i)) board.post(map->member(i).vp_id(), viewmap::sys::RequestKind::kVideo);
  }
  log.add_us("index.members", id, 0, static_cast<double>(map->size()));
  for (const auto& sp : s.report.trace.spans)
    if (sp.name == "result_cache_hit") log.add_us("system.cache.hit", id, static_cast<double>(s.report.trace.total_us));
}

/// The investigate phase: one round is one measured window of requests,
/// preceded (hot only) by the between-window uploads and followed by the
/// window's checks.
class InvestigatePhase final : public Phase {
 public:
  InvestigatePhase(const RunOptions& opt, const InvestigatePlan& plan)
      : opt_(opt), plan_(plan), tag_(plan.hot ? "investigate_hot: " : "investigate_cold: "),
        minutes_(make_downtown(plan.spec, kEpoch, plan.minutes, opt.seed, 4)),
        cfg_(service_config(plan, true)), svc_(cfg_),
        first_live_(kEpoch + static_cast<TimeSec>(plan.minutes) * kUnitTimeSec),
        keys_(plan, minutes_, opt.seed), epoch_(minutes_.size(), 0) {
    for (const auto& m : minutes_)
      if (m.sites.empty()) out_.errors.push_back(tag_ + "a minute without sites");
    load(svc_, minutes_, out_);
    if (plan_.hot) {
      twin_ = std::make_unique<ViewMapService>(service_config(plan_, false));
      load(*twin_, minutes_, out_);
      twin_->advance_clock(first_live_);
    }
    svc_.advance_clock(first_live_);
    for (auto& m : minutes_) m.profiles = {};  // the services hold them now
    warm_probes(svc_);
    if (twin_) warm_probes(*twin_);

    viewmap::sys::ServerConfig scfg;
    scfg.workers = plan_.server_workers;
    server_ = &svc_.start_server(scfg);
    // Warm-up: untimed requests from a key stream of their own.
    KeyStream warm(plan_, minutes_, opt_.seed ^ 0x5a5a);
    for (std::size_t i = 0; i < plan_.warmup_requests; ++i) (void)submit(warm.next()).second.get();
    if (plan_.hot) live_ = std::make_unique<LiveIngest>(svc_, opt_.trace);
    base_stats_ = server_->stats();
    base_cache_ = svc_.result_cache().stats();
  }

  ~InvestigatePhase() override {
    live_.reset();  // joins the ingest thread before the service goes
    svc_.stop_server();
  }
  InvestigatePhase(const InvestigatePhase&) = delete;
  InvestigatePhase& operator=(const InvestigatePhase&) = delete;

  void round() override {
    const std::uint64_t w = window_++;
    if (plan_.hot) between_windows(w);

    // A round starts after another phase's round has filled the host's
    // caches with its own data; the lead-in requests pay for refilling
    // them, untimed, so the window measures serving, not the switch.
    std::vector<Served> served;
    serve(plan_.lead_in, false, served);

    const auto t0 = SteadyClock::now();
    if (live_) live_->start(std::move(live_batches_), w);
    serve(plan_.window, true, served);
    if (live_) live_->wait();
    window_rate_.push_back(static_cast<double>(plan_.window) / seconds_since(t0));
    check(served);
  }

  PhaseResult finish() override {
    const auto st = server_->stats();
    const auto cs = svc_.result_cache().stats();
    out_.e2e["reports_per_s"] = median(window_rate_);
    out_.e2e["report_p50_ms"] = quantile(latency_ms_, 0.5);
    out_.e2e["report_p99_ms"] = quantile(latency_ms_, 0.99);
    if (live_) {
      if (live_->accepted != live_->expected)
        out_.errors.push_back(tag_ + check_db_size(live_->expected, live_->accepted));
      out_.e2e["ingest_vps_per_s"] = median(live_->batch_rate);
      out_.e2e["ingest_batch_p50_ms"] = median(live_->batch_ms);
    }
    if (opt_.trace != nullptr) {
      const SpanLog& log = *opt_.trace;
      const auto med = [&](const char* name) { return median(log.durations(name)); };
      auto& l = out_.layer;
      l["index.snapshot_us"] = med("index.snapshot");
      l["index.query_us"] = med("index.query");
      l["index.members_per_report"] = median(log.counts("index.members"));
      l["system.viewmap.build_ms"] = med("system.viewmap.build") / 1e3;
      l["system.viewmap.edges_per_report"] = median(log.counts("system.viewmap.build"));
      l["system.trustrank_ms"] = med("system.trustrank") / 1e3;
      l["system.trustrank_iterations"] = median(log.counts("system.trustrank"));
      l["system.verifier.algorithm1_ms"] = med("system.verifier.algorithm1") / 1e3;
      l["system.solicit_us"] = med("system.solicit");
      const double completed = static_cast<double>(st.completed - base_stats_.completed);
      l["system.server.snapshots_per_request"] =
          completed > 0 ? static_cast<double>(st.snapshots - base_stats_.snapshots) / completed
                        : 0;
      const auto hits = static_cast<double>(cs.hits - base_cache_.hits);
      const double lookups = hits + static_cast<double>(cs.misses - base_cache_.misses);
      l["system.cache.hit_ratio"] = lookups > 0 ? hits / lookups : 0;
      l["system.cache.hit_us"] = med("system.cache.hit");
      l["system.cache.resident_mb"] = static_cast<double>(max_resident_) / (1 << 20);
      l["system.cache.evictions"] = static_cast<double>(cs.evictions - base_cache_.evictions);
    }
    return std::move(out_);
  }

 private:
  /// Serves `n` requests in a closed loop with plan_.outstanding in
  /// flight, keeping each report in `served`; `timed` requests feed the
  /// latency samples and the trace.
  void serve(std::size_t n, bool timed, std::vector<Served>& served) {
    std::deque<std::tuple<Key, geo::Rect, SteadyClock::time_point,
                          std::future<std::vector<InvestigationReport>>>>
        inflight;
    std::size_t sent = 0;
    while (sent < n || !inflight.empty()) {
      while (sent < n && inflight.size() < plan_.outstanding) {
        const Key k = keys_.next();
        const auto ts = SteadyClock::now();
        auto [site, fut] = submit(k);
        inflight.emplace_back(k, site, ts, std::move(fut));
        ++sent;
      }
      auto [k, site, ts, fut] = std::move(inflight.front());
      inflight.pop_front();
      std::vector<InvestigationReport> reports;
      {
        ScopedSpan span(timed ? opt_.trace : nullptr, "request", out_.attempted);
        // The driving thread polls rather than sleeps, so the latency it
        // reads does not include its own wake-up from sleep.
        while (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
          std::this_thread::yield();
        reports = fut.get();
      }
      if (timed) latency_ms_.push_back(us_since(ts) / 1e3);
      out_.attempted += 1;
      if (reports.size() != 1) {
        out_.failed += 1;
        out_.errors.push_back(tag_ + "a request did not produce exactly one report");
        continue;
      }
      served.push_back({k, site, epoch_[k.minute], std::move(reports.front())});
    }
  }

  std::pair<geo::Rect, std::future<std::vector<InvestigationReport>>> submit(const Key& k) {
    const geo::Rect site = site_rect(minutes_[k.minute].sites[k.site], k.jx, k.jy);
    return {site, server_->submit(site, minutes_[k.minute].minute)};
  }

  /// investigate_hot, before window w: late uploads into one queried
  /// minute (every late_every-th window, no request in flight), the
  /// clock's advance, and the window's live-minute batches, which the
  /// twin admits here and the live service during the window.
  void between_windows(std::uint64_t w) {
    if (w % plan_.late_every == plan_.late_every - 1) {
      viewmap::Rng rng(mix_seed(opt_.seed, 0x1a7e, w));
      const std::size_t m = rng.index(minutes_.size());
      std::vector<viewmap::vp::ViewProfile> late;
      for (std::size_t i = 0; i < plan_.late_uploads; ++i)
        late.push_back(make_traffic_vp(minutes_[m].minute, plan_.spec.area, 3, 12, rng).profile);
      for (ViewMapService* s : {&svc_, twin_.get()}) {
        for (auto& p : serialize_all(late, 1)) s->upload_channel().submit(std::move(p));
        if (s->ingest_uploads() != late.size())
          out_.errors.push_back(tag_ + "a late upload into a queried minute was refused");
      }
      ++epoch_[m];
    }
    const TimeSec live_minute =
        first_live_ + static_cast<TimeSec>(w / plan_.windows_per_live_minute) * kUnitTimeSec;
    if (w % plan_.windows_per_live_minute == 0) {
      svc_.advance_clock(live_minute);
      twin_->advance_clock(live_minute);
    }
    viewmap::Rng rng(mix_seed(opt_.seed, 0x11fe, w));
    live_batches_.clear();
    for (std::size_t b = 0; b < plan_.live_batches_per_window; ++b) {
      std::vector<viewmap::vp::ViewProfile> batch;
      for (std::size_t i = 0; i < plan_.live_batch; ++i)
        batch.push_back(make_traffic_vp(live_minute, plan_.spec.area, 3, 12, rng).profile);
      live_batches_.push_back(serialize_all(batch, 1));
    }
    for (const auto& batch : live_batches_) {
      for (const auto& p : batch) twin_->upload_channel().submit(p);
      twin_->ingest_uploads();
    }
  }

  /// The window's checks, outside the measured time.
  void check(const std::vector<Served>& served) {
    for (std::size_t i = 0; i < served.size(); ++i) {
      const Served& s = served[i];
      const auto& truth = minutes_[s.key.minute];
      if (auto e = check_report(s.report, truth, s.site); !e.empty()) out_.errors.push_back(tag_ + e);
      if (plan_.hot) {
        auto [it, fresh] = twin_fp_.try_emplace({s.key.minute, s.key.site, s.epoch});
        if (fresh) it->second = fingerprint(twin_->investigate(s.site, truth.minute));
        if (auto e = check_same_report(fingerprint(s.report), it->second); !e.empty())
          out_.errors.push_back(tag_ + e);
      } else if (i == 0) {
        const auto& map = s.report.viewmap;
        std::vector<const viewmap::vp::ViewProfile*> members;
        std::vector<bool> trusted;
        for (std::size_t j = 0; j < map.size(); ++j) {
          members.push_back(&map.member(j));
          trusted.push_back(map.is_trusted(j));
        }
        const viewmap::sys::ViewmapBuilder builder(cfg_.viewmap);
        const auto ref = builder.build_from_members_reference(members, trusted, map.unit_time(),
                                                              map.coverage());
        if (auto e = check_same_viewmap(map, ref); !e.empty()) out_.errors.push_back(tag_ + e);
      }
      if (opt_.trace != nullptr && replayed_++ % plan_.replay_every == 0)
        replay(svc_, cfg_, s, truth.minute, replayed_, *opt_.trace);
    }
    const auto cs = svc_.result_cache().stats();
    max_resident_ = std::max(max_resident_, cs.resident_bytes);
    if (cs.resident_bytes > svc_.result_cache().capacity_bytes())
      out_.errors.push_back(tag_ + "cache resident bytes exceed its capacity");
  }

  const RunOptions& opt_;
  InvestigatePlan plan_;
  std::string tag_;
  PhaseResult out_;
  std::vector<DowntownMinute> minutes_;
  viewmap::sys::ServiceConfig cfg_;
  ViewMapService svc_;
  std::unique_ptr<ViewMapService> twin_;  ///< investigate_hot: the cache-off twin
  TimeSec first_live_;
  KeyStream keys_;
  std::vector<std::uint64_t> epoch_;  ///< late-upload epoch per queried minute
  viewmap::sys::InvestigationServer* server_ = nullptr;
  viewmap::sys::ServerStats base_stats_;
  viewmap::sys::ResultCache::Stats base_cache_;
  std::vector<std::vector<std::vector<std::uint8_t>>> live_batches_;
  std::uint64_t window_ = 0;
  std::vector<double> latency_ms_, window_rate_;
  std::map<std::tuple<std::size_t, std::size_t, std::uint64_t>, viewmap::Hash32> twin_fp_;
  std::size_t max_resident_ = 0;
  std::uint64_t replayed_ = 0;
  std::unique_ptr<LiveIngest> live_;  ///< last: its thread uses svc_
};

}  // namespace

std::unique_ptr<Phase> make_investigate_phase(const RunOptions& opt, const InvestigatePlan& plan) {
  return std::make_unique<InvestigatePhase>(opt, plan);
}

}  // namespace perfbench
