// Correctness checks. Each returns an empty string when the program's
// output is right and one line describing the fault otherwise. Every
// check compares against a computation made apart from the program (the
// generator's own tallies and geometry, a BFS written here, a twin
// service, a reference builder) or against a property the method must
// have — never against a stored copy of earlier output.
// selftest.cpp feeds each one a deliberately wrong output.
#pragma once

#include <string>
#include <vector>

#include "gen.h"
#include "index/db_snapshot.h"
#include "index/ingest_engine.h"
#include "system/service.h"

namespace perfbench {

/// What the generator expects one ingest_uploads() call to report.
struct IngestTally {
  std::size_t accepted = 0;
  std::size_t duplicate = 0;
  std::size_t untimely = 0;
  std::size_t evicted = 0;
};

[[nodiscard]] std::string check_ingest_tally(const IngestTally& expected,
                                             const viewmap::index::IngestStats& actual);

/// Database size through snapshot() against accepted − evicted.
[[nodiscard]] std::string check_db_size(std::size_t expected, std::size_t actual);

/// A query's id set against the benchmark's own scan (both sorted).
[[nodiscard]] std::string check_query(const std::vector<Id16>& expected,
                                      const std::vector<Id16>& actual);

/// The properties every investigation report must have, against the
/// generated ground truth of its minute:
///  - every TrustRank score is ≥ 0 and the scores sum to ≤ 1;
///  - every member outside the trusted VPs' connected component (own BFS
///    over the CSR) scores 0 and is never solicited;
///  - no planted Sybil VP is solicited when an honest site member lies
///    in the trusted component;
///  - every generated link between two members is a viewmap edge.
[[nodiscard]] std::string check_report(const viewmap::sys::InvestigationReport& report,
                                       const DowntownMinute& truth, const geo::Rect& site);

/// The fast builder's viewmap against build_from_members_reference's.
[[nodiscard]] std::string check_same_viewmap(const viewmap::sys::Viewmap& fast,
                                             const viewmap::sys::Viewmap& reference);

/// Fingerprint of a report's cacheable content: members, trust flags,
/// CSR, coverage, verification and solicited ids (the trace excluded).
[[nodiscard]] viewmap::Hash32 fingerprint(const viewmap::sys::InvestigationReport& report);

[[nodiscard]] std::string check_same_report(const viewmap::Hash32& served,
                                            const viewmap::Hash32& fresh);

/// Recovered shard digests against the live database's.
[[nodiscard]] std::string check_digests(
    const std::vector<viewmap::index::DbSnapshot::ShardDigest>& live,
    const std::vector<viewmap::index::DbSnapshot::ShardDigest>& recovered);

/// Recomputes one shard's content digest from its bytes (SHA-256 over
/// stream_content) and compares it with `expected`.
[[nodiscard]] std::string check_shard_bytes(const viewmap::index::TimeShard& shard,
                                            const viewmap::Hash32& expected);

}  // namespace perfbench
