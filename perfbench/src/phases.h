// The benchmark's phases. A run builds one phase of each kind: its
// workload's own phase and the other two for a fixed number of rounds,
// so every run reports every metric (see README.md). Phases advance in whole
// rounds, and the run spreads the small phases' rounds evenly through
// its measured time, so a short slowdown of the shared host hits every
// phase alike.
//
// Thread budget (4-core host): in every phase, server workers × build
// threads, plus ingest workers, plus the driving threads stay ≤ 4. Only
// one phase runs a round at a time.
#pragma once

#include <memory>

#include "gen.h"
#include "util.h"

namespace perfbench {

/// One phase of a run. Construction is its set-up (untimed, counted in
/// setup_s); round() runs one whole round and its checks; finish() runs
/// the final checks and returns the metrics (and, in a traced run, the
/// per-layer metrics from its replays).
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void round() = 0;
  [[nodiscard]] virtual PhaseResult finish() = 0;
};

struct IngestPlan {
  std::size_t batch = 4096;             ///< uploads per ingest_uploads() call
  std::size_t batches_per_minute = 4;   ///< the trusted clock advances after these
  std::size_t retained_minutes = 5;     ///< retention window + the live minute
  unsigned workers = 3;                 ///< ingest engine threads
  std::size_t duplicates = 123;         ///< re-delivered uploads per batch
  std::size_t late = 41;                ///< untimely uploads per batch
  std::size_t previous = 41;            ///< uploads claiming the previous minute
  geo::Rect city{{0, 0}, {8000, 8000}};
  std::size_t replay_batches = 12;      ///< batches replayed layer by layer when traced
};

struct InvestigatePlan {
  bool hot = false;
  DowntownSpec spec{};
  std::size_t minutes = 24;
  unsigned server_workers = 3;
  std::size_t build_threads = 1;
  std::size_t outstanding = 3;       ///< closed loop: requests in flight
  std::size_t window = 64;           ///< requests per measured window (one round)
  std::size_t lead_in = 8;           ///< untimed requests before each window
  std::size_t warmup_requests = 24;
  // investigate_hot only
  std::size_t cache_bytes = 4u << 20;
  double zipf_s = 1.0;
  std::size_t live_batch = 128;          ///< live-minute uploads per ingest call
  std::size_t live_batches_per_window = 2;
  std::size_t windows_per_live_minute = 4;
  std::size_t late_every = 4;            ///< late uploads before every k-th window
  std::size_t late_uploads = 3;
  std::size_t replay_every = 8;          ///< replay every k-th request when traced
};

struct RestartPlan {
  std::size_t minutes = 30;          ///< minutes held by the store
  std::size_t city_vps = 3600;       ///< unlinked traffic per minute
  /// Linked downtown per minute (its authority VPs anchor the sites).
  DowntownSpec downtown{{{3200, 3200}, {4800, 4800}}, 300, 4, 4};
  geo::Rect city{{0, 0}, {8000, 8000}};
  std::size_t checkpoints_per_round = 2;
  unsigned ingest_workers = 3;
};

/// One round: a minute of upload batches.
[[nodiscard]] std::unique_ptr<Phase> make_ingest_phase(const RunOptions& opt,
                                                       const IngestPlan& plan);
/// One round: a measured window of requests.
[[nodiscard]] std::unique_ptr<Phase> make_investigate_phase(const RunOptions& opt,
                                                            const InvestigatePlan& plan);
/// One round: a churn minute with its checkpoints, then a restore.
[[nodiscard]] std::unique_ptr<Phase> make_restart_phase(const RunOptions& opt,
                                                        const RestartPlan& plan);

}  // namespace perfbench
