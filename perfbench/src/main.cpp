// viewmap_perfbench — one run of one workload.
//
//   viewmap_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--scratch DIR] [--trace-out FILE]
//                     [--ingest-workers N] [--server-workers N] [--build-threads N]
//
// Sets up the workload's own phase and the other two phase kinds for a
// small fixed number of rounds (so every run reports every metric; see README.md for
// which metric comes from which phase), runs them interleaved for S
// seconds, checks every output, and prints one JSON object as its last
// line. With --trace 1 it records spans around the calls into each
// layer, replays work layer by layer, writes the spans to FILE, and
// reports the per-layer metrics. The --*-workers/--build-threads options
// override the workload's own phase's thread counts for experiments.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "phases.h"

namespace {

using namespace perfbench;

const auto kProcessStart = SteadyClock::now();

struct Metric {
  const char* name;
  const char* unit;
};

// The catalogue BENCHMARK.json declares, in its order.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ingest_vps_per_s", "VPs/s"},
    {"ingest_batch_p50_ms", "ms"},
    {"reports_per_s", "reports/s"},
    {"report_p50_ms", "ms"},
    {"report_p99_ms", "ms"},
    {"checkpoint_ms", "ms"},
    {"restart_s", "s"},
};

constexpr Metric kPerLayer[] = {
    {"anonet.drain_us_per_vp", "us/VP"},
    {"vp.parse_us_per_vp", "us/VP"},
    {"vp.screen_us_per_vp", "us/VP"},
    {"vp.bloom_probes_us_per_vp", "us/VP"},
    {"index.commit_us_per_vp", "us/VP"},
    {"index.commit_us_per_vp_1w", "us/VP"},
    {"index.evict_ms", "ms"},
    {"index.snapshot_us", "us"},
    {"index.query_us", "us"},
    {"index.members_per_report", "count"},
    {"system.viewmap.build_ms", "ms"},
    {"system.viewmap.edges_per_report", "count"},
    {"system.trustrank_ms", "ms"},
    {"system.trustrank_iterations", "count"},
    {"system.verifier.algorithm1_ms", "ms"},
    {"system.solicit_us", "us"},
    {"system.server.snapshots_per_request", "count"},
    {"system.cache.hit_ratio", "ratio"},
    {"system.cache.hit_us", "us"},
    {"system.cache.resident_mb", "MB"},
    {"system.cache.evictions", "count"},
    {"store.checkpoint_bytes", "bytes"},
    {"store.segments_written", "count"},
    {"store.bytes_per_vp", "bytes"},
    {"store.recover_read_ms", "ms"},
    {"store.recover_validate_ms", "ms"},
    {"store.recover_parse_ms", "ms"},
    {"store.recover_adopt_ms", "ms"},
    {"obs.ingest_overhead_pct", "%"},
};

// ── the phases at the sizes each workload runs them ─────────────────

InvestigatePlan hot_plan() {
  InvestigatePlan p;
  p.hot = true;
  p.minutes = 12;
  p.server_workers = 1;
  p.build_threads = 2;
  p.outstanding = 1;
  return p;
}

// The same downtown as investigate_cold's own phase: its key universe
// is what keeps report_p99_ms, set by the heaviest few keys, steady.
InvestigatePlan cold_small_plan() { return InvestigatePlan{}; }

RestartPlan restart_small_plan() {
  RestartPlan p;
  p.minutes = 10;
  p.city_vps = 2400;
  return p;
}

// Rounds of each phase kind when it is not the workload's own.
constexpr std::size_t kSmallIngestMinutes = 24;
constexpr std::size_t kSmallColdWindows = 48;  // 3072 timed requests: ≥ 30 beyond the p99
constexpr std::size_t kSmallRestartRounds = 30;

[[noreturn]] void usage() {
  std::cerr << "usage: viewmap_perfbench --workload ingest_live|investigate_cold|"
               "investigate_hot|restart --seed N --seconds S --trace 0|1 "
               "[--scratch DIR] [--trace-out FILE] [--ingest-workers N] "
               "[--server-workers N] [--build-threads N]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scratch = ".bench_scratch", trace_out;
  RunOptions opt;
  bool traced = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") opt.seed = std::stoull(v), have_seed = true;
    else if (k == "--seconds") opt.seconds = std::stod(v), have_seconds = true;
    else if (k == "--trace") traced = v == "1", have_trace = true;
    else if (k == "--scratch") scratch = v;
    else if (k == "--trace-out") trace_out = v;
    else if (k == "--ingest-workers") opt.ingest_workers = std::stoi(v);
    else if (k == "--server-workers") opt.server_workers = std::stoi(v);
    else if (k == "--build-threads") opt.build_threads = std::stoi(v);
    else usage();
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace) usage();
  if (workload != "ingest_live" && workload != "investigate_cold" &&
      workload != "investigate_hot" && workload != "restart")
    usage();

  SpanLog log;
  if (traced) opt.trace = &log;
  opt.scratch_dir = scratch + "/" + workload + "-" + std::to_string(opt.seed);
  std::filesystem::create_directories(opt.scratch_dir);

  // The workload's own phase, then the other two kinds at small size;
  // constructing a phase is its set-up.
  struct Small {
    std::unique_ptr<Phase> phase;
    std::size_t rounds;
    std::size_t done = 0;
  };
  std::unique_ptr<Phase> own;
  std::vector<Small> small;
  if (workload == "ingest_live") {
    IngestPlan p;
    if (opt.ingest_workers >= 0) p.workers = static_cast<unsigned>(opt.ingest_workers);
    own = make_ingest_phase(opt, p);
    small.push_back({make_investigate_phase(opt, cold_small_plan()), kSmallColdWindows});
    small.push_back({make_restart_phase(opt, restart_small_plan()), kSmallRestartRounds});
  } else if (workload == "investigate_cold" || workload == "investigate_hot") {
    InvestigatePlan p = workload == "investigate_hot" ? hot_plan() : InvestigatePlan{};
    if (!p.hot && opt.server_workers >= 0) p.server_workers = static_cast<unsigned>(opt.server_workers);
    if (!p.hot && opt.build_threads >= 0) p.build_threads = static_cast<std::size_t>(opt.build_threads);
    own = make_investigate_phase(opt, p);
    small.push_back({make_ingest_phase(opt, IngestPlan{}), kSmallIngestMinutes});
    small.push_back({make_restart_phase(opt, restart_small_plan()), kSmallRestartRounds});
  } else {
    own = make_restart_phase(opt, RestartPlan{});
    small.push_back({make_ingest_phase(opt, IngestPlan{}), kSmallIngestMinutes});
    small.push_back({make_investigate_phase(opt, cold_small_plan()), kSmallColdWindows});
  }
  const double setup_s = seconds_since(kProcessStart);

  // Measure: rounds of the workload's own phase until --seconds have
  // passed, with the small phases' rounds spread evenly over that time.
  const auto t0 = SteadyClock::now();
  const auto catch_up = [&](double fraction) {
    for (auto& s : small)
      for (; s.done < s.rounds && static_cast<double>(s.done) < fraction * static_cast<double>(s.rounds); ++s.done)
        s.phase->round();
  };
  while (seconds_since(t0) < opt.seconds) {
    own->round();
    catch_up(std::min(1.0, seconds_since(t0) / opt.seconds));
  }
  catch_up(1.0);

  PhaseResult r = own->finish();
  for (auto& s : small) r.merge_missing(s.phase->finish());
  own.reset();
  small.clear();
  std::filesystem::remove_all(opt.scratch_dir);
  r.e2e["setup_s"] = setup_s;
  r.e2e["peak_rss_mb"] = peak_rss_mb();

  if (traced) {
    // Untraced runs print only the end-to-end figures; a traced run
    // prints its own (traced) ones here so the overhead can be read.
    std::cout << "traced end-to-end:";
    for (const auto& m : kEndToEnd) std::cout << ' ' << m.name << '=' << r.e2e[m.name];
    std::cout << '\n';
    if (!trace_out.empty()) log.write_json(trace_out);
  }
  for (const auto& e : r.errors) std::cerr << "CHECK FAILED: " << e << '\n';

  std::string metrics;
  char buf[128];
  for (const auto& m : traced ? std::span<const Metric>(kPerLayer) : std::span<const Metric>(kEndToEnd)) {
    const auto& src = traced ? r.layer : r.e2e;
    const auto it = src.find(m.name);
    if (it == src.end()) {
      std::cerr << "CHECK FAILED: metric " << m.name << " was not measured\n";
      r.errors.push_back("missing metric");
    }
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, it == src.end() ? 0.0 : it->second,
                  m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
