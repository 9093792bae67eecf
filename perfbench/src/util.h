// Shared plumbing of the service benchmark: clocks, sample statistics,
// the in-memory span log of traced runs, and the phase result record.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Microseconds elapsed since `t0`.
[[nodiscard]] inline double us_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t0).count();
}

/// q-quantile (0 ≤ q ≤ 1) by linear interpolation; 0 for no samples.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Peak resident set of this process, MB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// One recorded span: a named interval of benchmark-side work around a
/// call into one layer, tied to the request (or batch) that caused it.
struct Span {
  std::string name;
  std::uint64_t request = 0;  ///< request / batch / round id, per phase
  double start_us = 0;        ///< offset from the log's origin
  double dur_us = 0;
  double count = 0;           ///< work items the span covered (VPs, edges, …)
};

/// Thread-safe in-memory span store. Disabled (null) in untraced runs,
/// so the untimed path pays one pointer test per would-be span.
class SpanLog {
 public:
  SpanLog() : origin_(SteadyClock::now()) {}
  void add(std::string name, std::uint64_t request, SteadyClock::time_point start,
           double count = 0);
  void add_us(std::string name, std::uint64_t request, double dur_us, double count = 0);
  /// Sum of durations and of counts over every span named `name`.
  [[nodiscard]] double total_us(const std::string& name) const;
  [[nodiscard]] double total_count(const std::string& name) const;
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  [[nodiscard]] std::vector<double> counts(const std::string& name) const;
  /// Writes every span as one JSON array to `path`.
  void write_json(const std::string& path) const;

 private:
  SteadyClock::time_point origin_;
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// Times one call and records it when a log is attached.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t request, double count = 0)
      : log_(log), name_(name), request_(request), count_(count),
        start_(SteadyClock::now()) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->add(name_, request_, start_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t request_;
  double count_;
  SteadyClock::time_point start_;
};

/// What one phase of a run produced. `e2e` holds end-to-end metrics,
/// `layer` per-layer metrics (filled only when traced); `errors` holds
/// one line per failed correctness check.
struct PhaseResult {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void merge_missing(const PhaseResult& other);
};

/// Options every phase receives.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;        ///< measured wall time of the run
  SpanLog* trace = nullptr;   ///< non-null in a traced run
  std::string scratch_dir;    ///< where stores may be created
  // Overrides for experiments outside the benchmark's own runs (the
  // thread counts a workload states are its defaults); -1 ⇒ default.
  int ingest_workers = -1;  ///< ingest_live's engine threads
  int server_workers = -1;  ///< investigate_cold's server workers (0 ⇒ program auto)
  int build_threads = -1;   ///< investigate_cold's build threads (0 ⇒ program auto)
};

}  // namespace perfbench
