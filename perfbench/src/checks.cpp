#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "crypto/sha256.h"

namespace perfbench {

namespace {

template <typename T>
void put(viewmap::crypto::Sha256& h, const T& v) {
  h.update({reinterpret_cast<const std::uint8_t*>(&v), sizeof v});
}

std::string diff(const char* what, std::size_t expected, std::size_t actual) {
  if (expected == actual) return {};
  std::ostringstream os;
  os << what << ": expected " << expected << ", program reported " << actual;
  return os.str();
}

}  // namespace

std::string check_ingest_tally(const IngestTally& expected,
                               const viewmap::index::IngestStats& actual) {
  for (const auto& e :
       {diff("accepted uploads", expected.accepted, actual.accepted),
        diff("duplicate uploads", expected.duplicate, actual.rejected_duplicate),
        diff("untimely uploads", expected.untimely, actual.rejected_untimely),
        diff("malformed uploads", 0, actual.rejected_malformed),
        diff("evicted VPs", expected.evicted, actual.evicted)})
    if (!e.empty()) return e;
  return {};
}

std::string check_db_size(std::size_t expected, std::size_t actual) {
  return diff("database size (accepted - evicted)", expected, actual);
}

std::string check_query(const std::vector<Id16>& expected, const std::vector<Id16>& actual) {
  if (expected == actual) return {};
  std::ostringstream os;
  os << "query result: own scan found " << expected.size() << " VPs, program returned "
     << actual.size() << (expected.size() == actual.size() ? " different ones" : "");
  return os.str();
}

std::string check_report(const viewmap::sys::InvestigationReport& report,
                         const DowntownMinute& truth, const geo::Rect& site) {
  const auto& map = report.viewmap;
  const auto& graph = map.graph();
  const auto& scores = report.verification.ranks.scores;
  const std::size_t n = map.size();
  if (scores.size() != n) return "TrustRank returned a score vector of the wrong length";

  double sum = 0;
  for (double s : scores) {
    if (!(s >= 0)) return "negative or NaN TrustRank score";
    sum += s;
  }
  if (sum > 1 + 1e-9) return "TrustRank scores sum above 1";

  // Own BFS from every trusted member over the CSR.
  std::vector<bool> reached(n, false);
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < n; ++i)
    if (map.is_trusted(i)) {
      reached[i] = true;
      frontier.push_back(i);
    }
  while (!frontier.empty()) {
    const std::size_t u = frontier.back();
    frontier.pop_back();
    for (std::uint32_t v : graph.neighbors(u))
      if (!reached[v]) {
        reached[v] = true;
        frontier.push_back(v);
      }
  }

  std::unordered_map<Id16, std::size_t, viewmap::Id16Hasher> member_of;
  for (std::size_t i = 0; i < n; ++i) member_of.emplace(map.member(i).vp_id(), i);
  const std::unordered_set<Id16, viewmap::Id16Hasher> solicited(report.solicited.begin(),
                                                                report.solicited.end());

  for (std::size_t i = 0; i < n; ++i)
    if (!reached[i]) {
      if (scores[i] != 0) return "a member outside the trusted component has a nonzero score";
      if (solicited.contains(map.member(i).vp_id()))
        return "a member outside the trusted component was solicited";
    }

  bool honest_site_member_trusted_side = false;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = truth.index.find(map.member(i).vp_id());
    if (it == truth.index.end()) continue;
    if (!truth.sybil[it->second] && reached[i] && truth.trips[it->second].visits(site))
      honest_site_member_trusted_side = true;
  }
  // A planted clique is linked only to itself, so the method must never
  // solicit it — unless a Bloom false positive in both directions joined
  // one of its VPs to a VP outside it (a false linkage the method admits
  // at its design rate). Every viewmap edge at a Sybil that the generator
  // did not make must therefore stand on its own, checked here from the
  // claimed positions and the raw filter bytes rather than through the
  // builder's predicate: the two VPs came within the link radius at an
  // aligned second, and each one's neighbor filter admits one of the
  // other's digests.
  const auto is_sybil = [&](std::size_t i) {
    const auto it = truth.index.find(map.member(i).vp_id());
    return it != truth.index.end() && truth.sybil[it->second];
  };
  const auto near = [&](const vp::ViewProfile& a, const vp::ViewProfile& b) {
    const auto da = a.digests(), db = b.digests();
    for (std::size_t s = 0; s < da.size() && s < db.size(); ++s)
      if (da[s].time == db[s].time &&
          std::hypot(da[s].loc_x - db[s].loc_x, da[s].loc_y - db[s].loc_y) <=
              truth.link_radius + 1e-6)
        return true;
    return false;
  };
  const auto admits = [](const vp::ViewProfile& filter_of, const vp::ViewProfile& other) {
    for (const auto& vd : other.digests())
      if (filter_of.neighbor_bloom().maybe_contains(vd.serialize())) return true;
    return false;
  };
  for (std::size_t u = 0; u < n; ++u) {
    if (!is_sybil(u)) continue;
    const auto& generated = truth.links[truth.index.at(map.member(u).vp_id())];
    for (std::uint32_t v : graph.neighbors(u)) {
      const auto gv = truth.index.find(map.member(v).vp_id());
      if (gv != truth.index.end() &&
          std::binary_search(generated.begin(), generated.end(), gv->second))
        continue;
      const auto& a = map.member(u);
      const auto& b = map.member(v);
      if (!near(a, b) || !admits(a, b) || !admits(b, a))
        return "a viewmap edge at a planted Sybil has no proximity or two-way Bloom support";
    }
  }
  const auto falsely_linked = [&](std::size_t start) {
    std::vector<bool> seen(n, false);
    std::vector<std::size_t> stack{start};
    seen[start] = true;
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      for (std::uint32_t v : graph.neighbors(u)) {
        if (!is_sybil(v)) return true;
        if (!seen[v]) {
          seen[v] = true;
          stack.push_back(v);
        }
      }
    }
    return false;
  };
  if (honest_site_member_trusted_side)
    for (const Id16& id : report.solicited) {
      const auto m = member_of.find(id);
      if (m != member_of.end() && is_sybil(m->second) && !falsely_linked(m->second))
        return "a planted Sybil VP was solicited";
    }

  for (std::size_t i = 0; i < n; ++i) {
    const auto it = truth.index.find(map.member(i).vp_id());
    if (it == truth.index.end()) continue;
    const auto nb = graph.neighbors(i);
    for (std::uint32_t g : truth.links[it->second]) {
      const auto m = member_of.find(truth.ids[g]);
      if (m == member_of.end()) continue;
      if (!std::binary_search(nb.begin(), nb.end(), static_cast<std::uint32_t>(m->second)))
        return "a generated link between two members is not a viewmap edge";
    }
  }
  return {};
}

std::string check_same_viewmap(const viewmap::sys::Viewmap& fast,
                               const viewmap::sys::Viewmap& reference) {
  if (fast.size() != reference.size()) return "reference builder chose other members";
  for (std::size_t i = 0; i < fast.size(); ++i)
    if (fast.member(i).vp_id() != reference.member(i).vp_id())
      return "reference builder ordered members differently";
  if (!(fast.graph() == reference.graph()))
    return "edge set differs from build_from_members_reference";
  return {};
}

viewmap::Hash32 fingerprint(const viewmap::sys::InvestigationReport& report) {
  viewmap::crypto::Sha256 h;
  const auto& map = report.viewmap;
  put(h, map.unit_time());
  put(h, map.coverage());
  put(h, map.size());
  for (std::size_t i = 0; i < map.size(); ++i) {
    h.update(map.member(i).vp_id().bytes);
    put(h, static_cast<std::uint8_t>(map.is_trusted(i)));
  }
  for (std::size_t o : map.graph().offsets()) put(h, o);
  for (std::uint32_t e : map.graph().edges()) put(h, e);
  const auto& v = report.verification;
  for (const auto* list : {&v.site_members, &v.legitimate, &v.rejected}) {
    put(h, list->size());
    for (std::size_t i : *list) put(h, i);
  }
  for (double s : v.ranks.scores) put(h, s);
  put(h, v.ranks.iterations);
  put(h, static_cast<std::uint8_t>(v.ranks.converged));
  put(h, report.solicited.size());
  for (const Id16& id : report.solicited) h.update(id.bytes);
  return h.finish();
}

std::string check_same_report(const viewmap::Hash32& served, const viewmap::Hash32& fresh) {
  if (served == fresh) return {};
  return "served report differs from a fresh build of the same key and database state";
}

std::string check_digests(const std::vector<viewmap::index::DbSnapshot::ShardDigest>& live,
                          const std::vector<viewmap::index::DbSnapshot::ShardDigest>& recovered) {
  if (live.size() != recovered.size())
    return diff("recovered shard count", live.size(), recovered.size());
  for (std::size_t i = 0; i < live.size(); ++i)
    if (live[i].unit_time != recovered[i].unit_time || live[i].digest != recovered[i].digest)
      return "a recovered shard digest differs from the live database's";
  return {};
}

std::string check_shard_bytes(const viewmap::index::TimeShard& shard,
                              const viewmap::Hash32& expected) {
  viewmap::crypto::Sha256 h;
  shard.stream_content([&h](std::span<const std::uint8_t> chunk) { h.update(chunk); });
  if (h.finish() == expected) return {};
  return "a recovered shard's bytes do not hash to the live shard's digest";
}

}  // namespace perfbench
