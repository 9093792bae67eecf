#include "gen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>
#include <thread>

#include "attack/fake_vp.h"

namespace perfbench {

geo::Vec2 Trip::at(int i) const {
  const geo::Vec2 p = geo::lerp(a, b, static_cast<double>(i) / (viewmap::kDigestsPerProfile - 1));
  return {static_cast<double>(static_cast<float>(p.x)),
          static_cast<double>(static_cast<float>(p.y))};
}

bool Trip::visits(const geo::Rect& r) const {
  for (int i = 0; i < viewmap::kDigestsPerProfile; ++i) {
    const geo::Vec2 p = at(i);
    if (p.x >= r.min.x && p.x <= r.max.x && p.y >= r.min.y && p.y <= r.max.y) return true;
  }
  return false;
}

double closest_approach(const Trip& x, const Trip& y, int* at_second) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < viewmap::kDigestsPerProfile; ++i) {
    const geo::Vec2 p = x.at(i);
    const geo::Vec2 q = y.at(i);
    const double d = std::hypot(p.x - q.x, p.y - q.y);
    if (d < best) {
      best = d;
      if (at_second != nullptr) *at_second = i;
    }
  }
  return best;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  // splitmix64 over the three words: independent streams per (stream, index).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull ^ (stream + 0x632be59bd9b4e019ull) *
                                                    0xbf58476d1ce4e5b9ull ^
                    index * 0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

GenVp make_traffic_vp(TimeSec minute, const geo::Rect& area, double speed_lo,
                      double speed_hi, viewmap::Rng& rng) {
  const geo::Vec2 a{rng.uniform(area.min.x, area.max.x), rng.uniform(area.min.y, area.max.y)};
  const double heading = rng.uniform(0, 2 * std::numbers::pi);
  const double travel = rng.uniform(speed_lo, speed_hi) * (viewmap::kDigestsPerProfile - 1);
  const geo::Vec2 b{a.x + std::cos(heading) * travel, a.y + std::sin(heading) * travel};
  return {viewmap::attack::make_fake_profile(minute, a, b, rng), Trip{a, b}};
}

namespace {

/// Largest closest-approach distance at which the generator links two
/// honest VPs: one metre inside the link radius, so float rounding of
/// the stored positions can never push a generated link out of range.
constexpr double kLinkMargin = 1.0;
/// A site is placed where an honest VP passed within this distance of
/// an authority VP it is linked to, so that authority VP is always a
/// member of the site's viewmap (coverage = site inflated by 200 m).
constexpr double kSiteAnchor = 250.0;

DowntownMinute make_minute(const DowntownSpec& spec, TimeSec minute, std::uint64_t seed) {
  DowntownMinute out;
  out.minute = minute;
  out.link_radius = spec.link_radius;
  viewmap::Rng rng(mix_seed(seed, 0xd0, static_cast<std::uint64_t>(minute)));
  const std::size_t n = spec.honest;
  for (std::size_t i = 0; i < n; ++i) {
    GenVp g = make_traffic_vp(minute, spec.area, spec.speed_lo, spec.speed_hi, rng);
    out.profiles.push_back(std::move(g.profile));
    out.trips.push_back(g.trip);
  }
  out.trusted.assign(n, false);
  for (std::size_t i = 0; i < spec.trusted && i < n; ++i) out.trusted[i * (n / spec.trusted)] = true;
  out.links.resize(n);

  // Candidate pairs by midpoint grid; exact test over the 60 samples.
  const double cell = spec.link_radius;
  const double reach = spec.link_radius + spec.speed_hi * (viewmap::kDigestsPerProfile - 1);
  const int span = static_cast<int>(std::ceil(reach / cell));
  const auto key = [&](geo::Vec2 p) {
    return std::pair<int, int>{static_cast<int>(std::floor(p.x / cell)),
                               static_cast<int>(std::floor(p.y / cell))};
  };
  std::map<std::pair<int, int>, std::vector<std::uint32_t>> grid;
  for (std::uint32_t i = 0; i < n; ++i)
    grid[key(geo::lerp(out.trips[i].a, out.trips[i].b, 0.5))].push_back(i);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> anchors;  // (honest, trusted)
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto [cx, cy] = key(geo::lerp(out.trips[i].a, out.trips[i].b, 0.5));
    for (int dx = -span; dx <= span; ++dx)
      for (int dy = -span; dy <= span; ++dy) {
        const auto it = grid.find({cx + dx, cy + dy});
        if (it == grid.end()) continue;
        for (std::uint32_t j : it->second) {
          if (j <= i) continue;
          const double d = closest_approach(out.trips[i], out.trips[j]);
          if (d > spec.link_radius - kLinkMargin) continue;
          viewmap::vp::link_mutually(out.profiles[i], out.profiles[j]);
          out.links[i].push_back(j);
          out.links[j].push_back(i);
          if (d <= kSiteAnchor && out.trusted[i] != out.trusted[j])
            anchors.emplace_back(out.trusted[i] ? j : i, out.trusted[i] ? i : j);
        }
      }
  }
  for (auto& l : out.links) std::sort(l.begin(), l.end());

  // Sites: anchored at an honest VP's position at its closest approach
  // to a linked authority VP; each honest VP anchors at most one site.
  std::sort(anchors.begin(), anchors.end());
  std::vector<bool> used(n, false);
  for (std::size_t k = 0; k < anchors.size() && out.sites.size() < spec.sites; ++k) {
    const std::size_t pick = static_cast<std::size_t>(rng.index(anchors.size()));
    const auto [h, t] = anchors[pick];
    if (used[h]) continue;
    used[h] = true;
    int sec = 0;
    (void)closest_approach(out.trips[h], out.trips[t], &sec);
    out.sites.push_back(out.trips[h].at(sec));
  }
  for (std::size_t k = 0; out.sites.size() < spec.sites && k < anchors.size(); ++k) {
    const auto [h, t] = anchors[k];
    if (used[h]) continue;
    used[h] = true;
    int sec = 0;
    (void)closest_approach(out.trips[h], out.trips[t], &sec);
    out.sites.push_back(out.trips[h].at(sec));
  }

  // One Sybil clique per site, well inside it, linked only to itself.
  for (const geo::Vec2 c : out.sites) {
    const std::size_t first = out.profiles.size();
    for (std::size_t s = 0; s < spec.sybils_per_site; ++s) {
      const geo::Vec2 a{c.x + rng.uniform(-35, 35), c.y + rng.uniform(-35, 35)};
      const geo::Vec2 b{c.x + rng.uniform(-35, 35), c.y + rng.uniform(-35, 35)};
      out.profiles.push_back(viewmap::attack::make_fake_profile(minute, a, b, rng));
      out.trips.push_back({a, b});
      out.links.emplace_back();
    }
    for (std::size_t x = first; x < out.profiles.size(); ++x)
      for (std::size_t y = x + 1; y < out.profiles.size(); ++y) {
        viewmap::attack::forge_link(out.profiles[x], out.profiles[y]);
        out.links[x].push_back(static_cast<std::uint32_t>(y));
        out.links[y].push_back(static_cast<std::uint32_t>(x));
      }
  }
  out.trusted.resize(out.profiles.size(), false);
  out.sybil.assign(out.profiles.size(), false);
  for (std::size_t i = n; i < out.profiles.size(); ++i) out.sybil[i] = true;
  for (std::uint32_t i = 0; i < out.profiles.size(); ++i) {
    out.ids.push_back(out.profiles[i].vp_id());
    out.index.emplace(out.ids.back(), i);
  }
  return out;
}

}  // namespace

std::vector<DowntownMinute> make_downtown(const DowntownSpec& spec, TimeSec first,
                                          std::size_t count, std::uint64_t seed,
                                          unsigned threads) {
  std::vector<DowntownMinute> out(count);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t m; (m = next.fetch_add(1)) < count;)
      out[m] = make_minute(spec, first + static_cast<TimeSec>(m) * viewmap::kUnitTimeSec, seed);
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();
  return out;
}

geo::Rect site_rect(geo::Vec2 center, double jx, double jy) {
  const geo::Vec2 c{center.x + jx, center.y + jy};
  return {{c.x - kSiteHalf, c.y - kSiteHalf}, {c.x + kSiteHalf, c.y + kSiteHalf}};
}

std::vector<std::vector<std::uint8_t>> serialize_all(const std::vector<vp::ViewProfile>& ps,
                                                     unsigned threads) {
  std::vector<std::vector<std::uint8_t>> out(ps.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(256)) < ps.size();)
      for (std::size_t j = i; j < std::min(ps.size(), i + 256); ++j) out[j] = ps[j].serialize();
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();
  return out;
}

}  // namespace perfbench
