// perfbench_selftest — shows that the benchmark's correctness checks can
// fail. Each case builds a real output with the program, asserts that
// the check accepts it, then corrupts it in one place and asserts that
// the check rejects it. Exit status 0 when every case behaves.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "checks.h"
#include "store/segment_store.h"
#include "system/service.h"

namespace {

using namespace perfbench;
using viewmap::sys::ViewMapService;

int failures = 0;

void expect(const char* what, const std::string& good, const std::string& bad) {
  const bool ok = good.empty() && !bad.empty();
  std::printf("%s: %s", ok ? "PASS" : "FAIL", what);
  if (!good.empty()) std::printf(" (rejected the correct output: %s)", good.c_str());
  if (bad.empty()) std::printf(" (accepted the corrupted output)");
  else std::printf(" (rejected: %s)", bad.c_str());
  std::printf("\n");
  failures += ok ? 0 : 1;
}

viewmap::sys::ServiceConfig small_config() {
  viewmap::sys::ServiceConfig cfg;
  cfg.rsa_bits = 512;
  cfg.ingest.threads = 1;
  cfg.viewmap.build_threads = 1;
  return cfg;
}

DowntownSpec small_spec() {
  DowntownSpec spec;
  spec.area = {{0, 0}, {1600, 1600}};
  spec.honest = 300;
  spec.trusted = 4;
  spec.sites = 2;
  return spec;
}

void load(ViewMapService& svc, const DowntownMinute& m) {
  for (std::size_t i = 0; i < m.profiles.size(); ++i)
    if (m.trusted[i]) (void)svc.register_trusted(m.profiles[i]);
  for (std::size_t i = 0; i < m.profiles.size(); ++i)
    if (!m.trusted[i]) svc.upload_channel().submit(m.profiles[i].serialize());
  (void)svc.ingest_uploads();
}

}  // namespace

int main() {
  const DowntownMinute m = std::move(make_downtown(small_spec(), kEpoch, 1, 7, 1).front());
  const geo::Rect site = site_rect(m.sites.front(), 0, 0);

  // 1. An upload tally off by one.
  {
    ViewMapService svc(small_config());
    svc.advance_clock(kEpoch);
    viewmap::Rng rng(3);
    std::vector<std::vector<std::uint8_t>> payloads;
    for (int i = 0; i < 10; ++i)
      payloads.push_back(make_traffic_vp(kEpoch, small_spec().area, 3, 12, rng).profile.serialize());
    payloads.push_back(payloads.front());  // one re-delivery
    for (auto& p : payloads) svc.upload_channel().submit(std::move(p));
    (void)svc.ingest_uploads();
    const IngestTally tally{10, 1, 0, 0};
    auto wrong = svc.last_ingest();
    wrong.accepted += 1;
    expect("ingest tally off by one", check_ingest_tally(tally, svc.last_ingest()),
           check_ingest_tally(tally, wrong));
  }

  // 2. A planted fake VP added to a report's solicited set.
  {
    ViewMapService svc(small_config());
    load(svc, m);
    auto report = svc.investigate(site, m.minute);
    const std::string good = check_report(report, m, site);
    report.solicited.push_back(m.ids[small_spec().honest]);  // site 0's first Sybil
    expect("Sybil VP added to the solicited set", good, check_report(report, m, site));
  }

  // 2b. A planted Sybil solicited through an edge the filters do not
  //     support: the viewmap gains an edge from a Sybil to an authority
  //     VP (so the Sybil sits in the trusted component) and the Sybil is
  //     solicited, as a link-verification fault would have it.
  {
    ViewMapService svc(small_config());
    load(svc, m);
    const auto report = svc.investigate(site, m.minute);
    const std::string good = check_report(report, m, site);
    const auto& map = report.viewmap;
    std::size_t sybil = map.size(), authority = map.size();
    for (std::size_t i = 0; i < map.size(); ++i) {
      const auto it = m.index.find(map.member(i).vp_id());
      if (it != m.index.end() && m.sybil[it->second] && sybil == map.size()) sybil = i;
      if (map.is_trusted(i) && authority == map.size()) authority = i;
    }
    if (sybil == map.size() || authority == map.size()) {
      failures += 1;
      std::printf("FAIL: site 0's viewmap holds no Sybil or no authority VP\n");
    } else {
      std::vector<std::vector<std::uint32_t>> adj(map.size());
      std::vector<const viewmap::vp::ViewProfile*> members;
      std::vector<bool> trusted;
      for (std::size_t i = 0; i < map.size(); ++i) {
        const auto nb = map.neighbors(i);
        adj[i].assign(nb.begin(), nb.end());
        members.push_back(&map.member(i));
        trusted.push_back(map.is_trusted(i));
      }
      adj[sybil].push_back(static_cast<std::uint32_t>(authority));
      adj[authority].push_back(static_cast<std::uint32_t>(sybil));
      for (auto& a : adj) std::sort(a.begin(), a.end());
      viewmap::sys::InvestigationReport bad{
          viewmap::sys::Viewmap(std::move(members), std::move(trusted),
                                viewmap::sys::CsrGraph::from_adjacency(adj), map.unit_time(),
                                map.coverage()),
          report.verification, report.solicited, {}};
      bad.solicited.push_back(map.member(sybil).vp_id());
      expect("Sybil solicited through an unsupported edge", good, check_report(bad, m, site));
    }
  }

  // 3. One recovered shard digest changed.
  {
    const std::string dir = ".bench_scratch/selftest-store";
    std::filesystem::remove_all(dir);
    ViewMapService svc(small_config());
    load(svc, m);
    viewmap::store::SegmentStore store(dir);
    (void)svc.checkpoint(store);
    ViewMapService restored(small_config());
    (void)restored.restore_from(store);
    const auto live = svc.database().snapshot().shard_digests();
    auto recovered = restored.database().snapshot().shard_digests();
    const std::string good = check_digests(live, recovered);
    recovered.front().digest.bytes[0] ^= 1;
    expect("recovered shard digest changed", good, check_digests(live, recovered));
    std::filesystem::remove_all(dir);
  }

  // 4. One cached report altered.
  {
    ViewMapService svc(small_config());
    auto twin_cfg = small_config();
    twin_cfg.result_cache.enabled = false;
    ViewMapService twin(twin_cfg);
    load(svc, m);
    load(twin, m);
    (void)svc.investigate(site, m.minute);
    auto hit = svc.investigate(site, m.minute);  // served from the cache
    const auto fresh = fingerprint(twin.investigate(site, m.minute));
    const std::string good = check_same_report(fingerprint(hit), fresh);
    if (svc.result_cache().stats().hits != 1) failures += 1, std::printf("FAIL: no cache hit\n");
    hit.verification.ranks.scores.back() += 1e-12;
    expect("cached report altered", good, check_same_report(fingerprint(hit), fresh));
  }
  return failures == 0 ? 0 : 1;
}
