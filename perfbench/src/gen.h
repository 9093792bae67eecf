// Input generation. Every workload's inputs come from here, seeded by
// the run's --seed, and are built only from the VP construction calls
// (attack::make_fake_profile, vp::link_mutually, serialize()), never
// from src/sim — so a change to the simulator cannot change a workload.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "geo/geometry.h"
#include "vp/view_profile.h"

namespace perfbench {

namespace geo = viewmap::geo;
namespace vp = viewmap::vp;
using viewmap::Id16;
using viewmap::TimeSec;

/// First minute every workload's timeline starts at (a whole minute).
inline constexpr TimeSec kEpoch = 1'000'020;

/// A claimed straight-line trajectory over one minute: the 60 stored
/// positions are lerp(a, b, i/59) rounded to float, exactly as
/// make_fake_profile lays them out.
struct Trip {
  geo::Vec2 a;
  geo::Vec2 b;

  /// Stored position of second index i (0..59), as the VP carries it.
  [[nodiscard]] geo::Vec2 at(int i) const;
  /// The benchmark's own site predicate: any stored position in `r`.
  [[nodiscard]] bool visits(const geo::Rect& r) const;
};

/// Smallest time-aligned distance between two trips (over the 60 samples).
[[nodiscard]] double closest_approach(const Trip& x, const Trip& y, int* at_second = nullptr);

/// Deterministic child seed for (seed, stream, index).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                                     std::uint64_t index);

/// One generated VP together with what the generator knows about it.
struct GenVp {
  vp::ViewProfile profile;
  Trip trip;
};

/// A VP with an empty neighbor filter, uniformly placed in `area`,
/// moving at a speed drawn from [speed_lo, speed_hi] m/s.
[[nodiscard]] GenVp make_traffic_vp(TimeSec minute, const geo::Rect& area,
                                    double speed_lo, double speed_hi, viewmap::Rng& rng);

/// Dense downtown for one minute: honest vehicles (some of them
/// authority vehicles) linked to every VP that came within the link
/// radius of them, as DSRC exchange would link them, plus one planted
/// Sybil clique per investigation site (fabricated VPs inside the site,
/// linked only to one another).
struct DowntownSpec {
  geo::Rect area{{0, 0}, {2400, 2400}};
  std::size_t honest = 700;
  std::size_t trusted = 8;  ///< authority VPs, among the honest ones
  std::size_t sites = 32;
  std::size_t sybils_per_site = 4;
  double link_radius = 400;  ///< must equal ViewmapConfig::link_radius_m
  double speed_lo = 3;
  double speed_hi = 12;
};

/// Half-width of an investigation site.
inline constexpr double kSiteHalf = 100;
/// Largest per-request jitter of a site's position.
inline constexpr double kSiteJitter = 5;

struct DowntownMinute {
  TimeSec minute = 0;
  double link_radius = 0;  ///< the spec's, for checks that re-derive links
  /// Honest VPs first (indices [0, honest)), then the Sybils.
  std::vector<vp::ViewProfile> profiles;
  std::vector<Trip> trips;
  std::vector<bool> trusted;
  std::vector<bool> sybil;
  /// Generated links (both directions), by generation index.
  std::vector<std::vector<std::uint32_t>> links;
  /// Site centers; site k's Sybils are profiles
  /// [honest + k*sybils_per_site, honest + (k+1)*sybils_per_site).
  std::vector<geo::Vec2> sites;
  std::vector<Id16> ids;  ///< by generation index
  std::unordered_map<Id16, std::uint32_t, viewmap::Id16Hasher> index;  ///< id → gen index
};

/// Generates `count` consecutive downtown minutes from `first`, minutes
/// generated in parallel on at most `threads` threads (deterministic:
/// each minute has its own seed stream).
[[nodiscard]] std::vector<DowntownMinute> make_downtown(const DowntownSpec& spec,
                                                        TimeSec first, std::size_t count,
                                                        std::uint64_t seed, unsigned threads);

/// The site rectangle of one request: the site's center shifted by a
/// jitter in [-kSiteJitter, kSiteJitter]² so no two requests share a key.
[[nodiscard]] geo::Rect site_rect(geo::Vec2 center, double jx, double jy);

/// Serializes every profile of `ps` on up to `threads` threads.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> serialize_all(
    const std::vector<vp::ViewProfile>& ps, unsigned threads);

}  // namespace perfbench
