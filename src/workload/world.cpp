#include "workload/world.h"

#include <algorithm>
#include <cmath>

#include "routing/policy.h"
#include "util/expect.h"

namespace fbedge {

namespace {

/// Per-continent calibration (paper §4, Fig. 6; Sandvine-style traffic
/// shares). RTT medians are end-to-end MinRTT targets; the builder deducts
/// nothing for route offsets since preferred-route offsets are ~0-2 ms.
struct ContinentParams {
  Continent continent;
  double traffic_share;
  Duration median_rtt;
  double rtt_sigma;     // lognormal sigma in log-space
  double non_hd_median; // fraction of clients that cannot sustain HD
  double tz_lo, tz_hi;  // local-time offsets in hours
};

// The non-HD shares are set below the paper's observed HDratio=0 shares
// (AF 36% / AS 24% / SA 27%) because marginal HD-capable clients also land
// at HDratio 0 when loss or peak-hour congestion strikes; the *measured*
// shares land on the paper's numbers.
// AF/AS medians are *local-serving* targets: Cartographer adds the
// intercontinental round trip for the ~30%/14% of their traffic served
// from Europe, which lifts the observed continent medians to the paper's
// 58/51 ms.
constexpr ContinentParams kContinentParams[] = {
    {Continent::kAfrica, 0.07, 0.048, 0.33, 0.25, 0.0, 3.0},
    {Continent::kAsia, 0.35, 0.048, 0.33, 0.15, 5.0, 9.0},
    {Continent::kEurope, 0.20, 0.024, 0.40, 0.06, 0.0, 2.0},
    {Continent::kNorthAmerica, 0.25, 0.024, 0.40, 0.05, -8.0, -5.0},
    {Continent::kOceania, 0.03, 0.022, 0.40, 0.07, 8.0, 11.0},
    {Continent::kSouthAmerica, 0.10, 0.040, 0.45, 0.18, -5.0, -3.0},
};

constexpr std::uint32_t kTier1Asns[] = {3356, 1299, 174, 2914, 6762, 3257};

std::vector<std::uint32_t> peer_path(std::uint32_t asn) { return {asn}; }

std::vector<std::uint32_t> transit_path(std::uint32_t tier1, std::uint32_t asn,
                                        int prepends) {
  std::vector<std::uint32_t> path{tier1};
  path.push_back(asn);
  for (int i = 0; i < prepends; ++i) path.push_back(asn);
  return path;
}

/// Route-set templates reflecting §6.1: most groups have a private peer
/// preferred over transit alternates.
std::vector<RouteProfile> make_routes(const IpPrefix& prefix, std::uint32_t asn,
                                      Rng& rng) {
  const std::uint32_t t1a = kTier1Asns[rng.uniform_int(0, 5)];
  const std::uint32_t t1b = kTier1Asns[rng.uniform_int(0, 5)];
  std::vector<RouteProfile> routes;
  auto add = [&](Relationship rel, std::vector<std::uint32_t> path, Duration offset) {
    RouteProfile r;
    r.route.prefix = prefix;
    r.route.as_path = std::move(path);
    r.route.relationship = rel;
    r.rtt_offset = offset;
    r.base_loss = rng.uniform(0.0001, 0.001);
    r.capacity = rng.uniform(80.0, 400.0) * kMbps;
    routes.push_back(std::move(r));
  };

  const double u = rng.uniform();
  const Duration peer_off = rng.uniform(0.0, 0.002);
  if (u < 0.48) {
    // Private peer + two transits.
    add(Relationship::kPrivatePeer, peer_path(asn), peer_off);
    add(Relationship::kTransit, transit_path(t1a, asn, 0), rng.uniform(0.001, 0.008));
    add(Relationship::kTransit, transit_path(t1b, asn, rng.bernoulli(0.3) ? 2 : 0),
        rng.uniform(0.002, 0.010));
  } else if (u < 0.60) {
    // Two private interconnects to the same AS (e.g. different metros);
    // the second announces a prepended path to steer bulk traffic away
    // even though its physical path is often shorter (§6.2.2 hints this is
    // capacity-driven ingress TE) — the paper's Table 2 "Longer/Prepended"
    // situation, where the policy-losing route would perform better.
    const Duration faster_extra = rng.uniform(0.006, 0.014);  // drawn always
    const bool prepended_is_faster = rng.bernoulli(0.15);
    add(Relationship::kPrivatePeer, peer_path(asn),
        peer_off + (prepended_is_faster ? faster_extra : 0.001));
    std::vector<std::uint32_t> prepended{asn, asn};
    add(Relationship::kPrivatePeer, std::move(prepended), peer_off);
    add(Relationship::kTransit, transit_path(t1a, asn, 0), rng.uniform(0.001, 0.008));
  } else if (u < 0.75) {
    // Public IXP peer + two transits.
    add(Relationship::kPublicPeer, peer_path(asn), peer_off + 0.0005);
    add(Relationship::kTransit, transit_path(t1a, asn, 0), rng.uniform(0.001, 0.008));
    add(Relationship::kTransit, transit_path(t1b, asn, 0), rng.uniform(0.002, 0.010));
  } else if (u < 0.90) {
    // Private + public peers + one transit.
    add(Relationship::kPrivatePeer, peer_path(asn), peer_off);
    add(Relationship::kPublicPeer, peer_path(asn), peer_off + rng.uniform(0.0, 0.002));
    add(Relationship::kTransit, transit_path(t1a, asn, 0), rng.uniform(0.001, 0.008));
  } else {
    // Transit-only (no peering with this AS).
    add(Relationship::kTransit, transit_path(t1a, asn, 0), rng.uniform(0.000, 0.004));
    add(Relationship::kTransit, transit_path(t1b, asn, rng.bernoulli(0.3) ? 2 : 0),
        rng.uniform(0.001, 0.008));
  }

  // Rank by the §6.1 policy so index 0 is the preferred route.
  std::vector<Route> bare;
  bare.reserve(routes.size());
  for (const auto& r : routes) bare.push_back(r.route);
  std::stable_sort(routes.begin(), routes.end(),
                   [](const RouteProfile& a, const RouteProfile& b) {
                     return RoutingPolicy::compare(a.route, b.route) < 0;
                   });
  return routes;
}

}  // namespace

World build_world(const WorldConfig& config) {
  Rng rng(config.seed);
  World world;

  // Two PoPs per continent (a metro pair) — enough to exercise the PoP
  // dimension of the user-group key.
  std::uint32_t pop_id = 1;
  for (const auto& params : kContinentParams) {
    for (int i = 0; i < 2; ++i) {
      PopInfo pop;
      pop.id = PopId{pop_id++};
      pop.continent = params.continent;
      pop.name = std::string(to_code(params.continent)) + "-pop" + std::to_string(i + 1);
      world.pops.push_back(pop);
    }
  }

  std::uint32_t next_asn = 64500;
  std::uint32_t next_net = 0x0a000000;  // 10.0.0.0 onwards
  std::uint64_t group_seq = 0;

  // Ingress mapping (§2.1): groups get coordinates; Cartographer assigns
  // the serving PoP with Europe absorbing AF/AS coverage shortfall.
  const std::vector<PopSite> sites = default_pop_sites();
  Cartographer cartographer(sites, {.seed = config.seed ^ 0xCA270ULL});

  for (std::size_t ci = 0; ci < std::size(kContinentParams); ++ci) {
    const auto& params = kContinentParams[ci];
    for (int g = 0; g < config.groups_per_continent; ++g) {
      UserGroupProfile group;
      group.continent = params.continent;
      group.asn = Asn{next_asn};
      if (g % 2 == 1) ++next_asn;  // two prefixes per AS on average

      // Allocate a disjoint, properly aligned block for the prefix.
      const int prefix_len = static_cast<int>(rng.uniform_int(16, 22));
      const std::uint32_t block = 1u << (32 - prefix_len);
      next_net = (next_net + block - 1) & ~(block - 1);  // align up
      group.key.prefix = IpPrefix{next_net, prefix_len};
      next_net += block;
      group.key.country = CountryId{static_cast<std::uint32_t>(ci * 100 + g % 3)};

      // Place the population: ~55% in a PoP metro area, the rest scattered
      // across the continent — calibrated so half of all traffic is within
      // 500 km of its PoP and 90% within 2500 km (§2.1).
      if (rng.bernoulli(0.55)) {
        const auto& metro = sites[ci * 2 + static_cast<std::size_t>(rng.uniform_int(0, 1))];
        group.location = {metro.location.lat + rng.normal(0, 1.5),
                          metro.location.lon + rng.normal(0, 1.5)};
      } else {
        const GeoPoint anchor = continent_anchor(params.continent);
        group.location = {anchor.lat + rng.normal(0, 9.0),
                          anchor.lon + rng.normal(0, 13.0)};
      }
      // Stratified overflow decision (exact fractions instead of a per-
      // group coin flip, which at bench-scale group counts has enough
      // variance to distort the continent medians).
      double remote_fraction = 0;
      if (params.continent == Continent::kAfrica) remote_fraction = 0.30;
      if (params.continent == Continent::kAsia) remote_fraction = 0.14;
      const bool remote =
          std::floor((g + 1) * remote_fraction) > std::floor(g * remote_fraction);
      const IngressAssignment ingress =
          remote ? cartographer.assign_overflow(group.location)
                 : cartographer.assign_local(group.location, params.continent);
      group.key.pop = world.pops[static_cast<std::size_t>(ingress.pop_index)].id;
      group.pop_distance_km = ingress.distance_km;
      group.remote_served = ingress.cross_continent;
      // Remote serving adds the intercontinental propagation round trip on
      // top of the (locally calibrated) base RTT draw, capped: operators
      // route overflow to the *nearest* viable remote PoP.
      const Duration remote_extra =
          ingress.cross_continent
              ? std::min(0.075, std::max(0.0, 2.0 * (propagation_delay(
                                                         ingress.distance_km) -
                                                     propagation_delay(800.0))))
              : 0.0;

      group.tz_offset_hours = rng.uniform(params.tz_lo, params.tz_hi);
      group.base_rtt =
          rng.lognormal(std::log(params.median_rtt), params.rtt_sigma) + remote_extra;
      group.base_rtt = std::clamp(group.base_rtt, 0.002, 0.800);
      group.jitter_mean = rng.uniform(0.0002, 0.003);
      group.non_hd_fraction =
          std::clamp(params.non_hd_median + rng.normal(0.0, 0.08), 0.01, 0.85);
      // Volume per group: enough that alternate routes (26.5% of sampled
      // sessions each) clear the 30-sample validity floor for HD-testable
      // sessions in most windows, as the paper's per-PoP volumes did.
      group.sessions_per_window = rng.lognormal(std::log(320.0), 0.4);
      group.weight = params.traffic_share / config.groups_per_continent;

      group.routes = make_routes(group.key.prefix, next_asn, rng);

      // Temporal processes.
      if (rng.bernoulli(config.dest_diurnal_fraction)) {
        group.dest_diurnal = true;
        group.dest_peak_delay = rng.uniform(0.003, 0.025);
        group.dest_peak_loss = rng.uniform(0.002, 0.02);
      }
      if (group.routes.size() >= 2 && rng.bernoulli(config.route_diurnal_fraction)) {
        auto& preferred = group.routes.front();
        preferred.diurnal_congestion = true;
        preferred.peak_extra_delay = rng.uniform(0.005, 0.020);
        preferred.peak_extra_loss = rng.uniform(0.005, 0.03);
      }
      if (group.routes.size() >= 2 &&
          rng.bernoulli(config.continuous_opportunity_fraction)) {
        // Preferred route persistently slower than the best alternate —
        // e.g. a peer with a circuitous internal path (§6.2.1 continuous).
        // Sized so the 5 ms threshold is confidently cleared.
        group.routes.front().rtt_offset += rng.uniform(0.008, 0.020);
      }
      if (rng.bernoulli(config.episodic_fraction)) {
        const int episodes = static_cast<int>(rng.uniform_int(1, 3));
        const int total_windows = config.days * 96;
        for (int e = 0; e < episodes; ++e) {
          Episode ep;
          ep.start_window = static_cast<int>(rng.uniform_int(0, total_windows - 9));
          ep.end_window = ep.start_window + static_cast<int>(rng.uniform_int(1, 8));
          ep.route_index = rng.bernoulli(0.5) ? -1 : 0;
          ep.extra_delay = rng.uniform(0.005, 0.030);
          ep.extra_loss = rng.uniform(0.0, 0.03);
          group.episodes.push_back(ep);
        }
      }

      (void)group_seq;
      ++group_seq;
      world.groups.push_back(std::move(group));
    }
  }
  return world;
}

bool in_peak_hours(const UserGroupProfile& group, SimTime t) {
  const double local_hours = t / 3600.0 + group.tz_offset_hours;
  // One fmod instead of two: f is in (-24, 24), so g = f + 24 lands in
  // (0, 48] and fmod(g, 24) is g, g - 24 (exact by Sterbenz), or 0 at
  // g == 48 — reproduced bit-for-bit by the comparisons below, including
  // the rounding of f + 24 near the boundaries.
  const double f = std::fmod(local_hours, 24.0);
  const double g = f + 24.0;
  double hour_of_day = g >= 24.0 ? g - 24.0 : g;
  if (hour_of_day >= 24.0) hour_of_day -= 24.0;
  return hour_of_day >= 19.0 && hour_of_day < 23.0;
}

PathConditions path_conditions(const UserGroupProfile& group, int route_index, SimTime t,
                               BitsPerSecond client_rate) {
  FBEDGE_EXPECT(route_index >= 0 && route_index < static_cast<int>(group.routes.size()),
                "route index out of range");
  const RouteProfile& route = group.routes[static_cast<std::size_t>(route_index)];

  PathConditions path;
  path.min_rtt = group.base_rtt + route.rtt_offset;
  path.loss_rate = route.base_loss;
  path.jitter = group.jitter_mean;
  path.bottleneck = std::min(client_rate, route.capacity);

  const bool peak = in_peak_hours(group, t);
  if (peak && group.dest_diurnal) {
    path.min_rtt += group.dest_peak_delay;
    path.loss_rate += group.dest_peak_loss;
  }
  if (peak && route.diurnal_congestion) {
    path.min_rtt += route.peak_extra_delay;
    path.loss_rate += route.peak_extra_loss;
  }

  const int window = window_index(t);
  for (const auto& ep : group.episodes) {
    if (window >= ep.start_window && window < ep.end_window &&
        (ep.route_index < 0 || ep.route_index == route_index)) {
      path.min_rtt += ep.extra_delay;
      path.loss_rate += ep.extra_loss;
    }
  }
  path.loss_rate = std::min(path.loss_rate, 0.3);
  return path;
}

BitsPerSecond draw_client_rate(const UserGroupProfile& group, Rng& rng) {
  if (rng.bernoulli(group.non_hd_fraction)) {
    return rng.uniform(0.3, 2.2) * kMbps;
  }
  const double rate = rng.lognormal(std::log(12.0), 0.8);
  return std::clamp(rate, 2.6, 500.0) * kMbps;
}

void skip_client_rate(const UserGroupProfile& group, Rng& rng) {
  if (rng.bernoulli(group.non_hd_fraction)) {
    rng();
    return;
  }
  rng.skip_normal();
}

}  // namespace fbedge
