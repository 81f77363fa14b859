// The synthetic global serving world: PoPs, ASes, prefixes, user groups,
// routes, and the temporal condition processes that drive them.
//
// This substitutes for the production environment the paper measures
// (repro_why: "needs production CDN traffic"). Per-continent parameters
// are calibrated so the *shape* of the paper's results holds: median
// MinRTT ~39 ms globally (AF 58 / AS 51 / SA 40 / others <= ~25), non-HD
// client shares of AF 36% / AS 24% / SA 27%, mostly-diurnal destination
// congestion, and rare routing opportunity (mostly continuous, MinRTT-only).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "agg/user_group.h"
#include "routing/route.h"
#include "tcp/fluid_model.h"
#include "util/geo.h"
#include "util/rng.h"
#include "workload/cartographer.h"

namespace fbedge {

/// A point of presence.
struct PopInfo {
  PopId id{};
  Continent continent{Continent::kNorthAmerica};
  std::string name;
};

/// One egress route's static profile and congestion behaviour.
struct RouteProfile {
  Route route;  // BGP attributes (prefix, AS path, relationship)
  /// Latency this route adds on top of the group's base RTT.
  Duration rtt_offset{0};
  double base_loss{0.0005};
  /// Per-flow achievable rate through this route when uncongested.
  BitsPerSecond capacity{200 * kMbps};
  /// Peering/transit link that congests at the destination's peak hours
  /// (route-specific, so an alternate can bypass it -> opportunity).
  bool diurnal_congestion{false};
  Duration peak_extra_delay{0};
  double peak_extra_loss{0};
};

/// A transient failure/maintenance episode affecting a group.
struct Episode {
  int start_window{0};
  int end_window{0};  // exclusive
  /// Route it affects; -1 = destination-side (all routes).
  int route_index{-1};
  Duration extra_delay{0};
  double extra_loss{0};
};

/// Everything static about one user group plus its condition processes.
struct UserGroupProfile {
  UserGroupKey key;
  Continent continent{Continent::kNorthAmerica};
  Asn asn{};
  /// Local-time offset used for the diurnal phase.
  double tz_offset_hours{0};
  /// Geographic location of the client population (Cartographer input).
  GeoPoint location;
  /// Great-circle distance to the serving PoP.
  double pop_distance_km{0};
  /// Served from a PoP on another continent (§2.1's ~10% of traffic).
  bool remote_served{false};
  /// Propagation RTT between the serving PoP and this group.
  Duration base_rtt{0.03};
  /// Mean per-round jitter (exponential).
  Duration jitter_mean{0.001};
  /// Fraction of clients whose access link cannot sustain HD goodput.
  double non_hd_fraction{0.15};
  /// Mean session arrivals per 15-minute window.
  double sessions_per_window{50};
  /// Relative traffic weight (used when reporting per-continent shares).
  double weight{1.0};

  /// Destination-side diurnal congestion (shared bottleneck: affects every
  /// route, so rerouting cannot help -> degradation without opportunity).
  bool dest_diurnal{false};
  Duration dest_peak_delay{0};
  double dest_peak_loss{0};

  std::vector<Episode> episodes;
  /// Policy-ranked routes; index 0 is preferred (§6.1).
  std::vector<RouteProfile> routes;
};

struct World {
  std::vector<PopInfo> pops;
  std::vector<UserGroupProfile> groups;
};

/// Knobs for world construction.
struct WorldConfig {
  std::uint64_t seed{42};
  int groups_per_continent{40};
  /// Fraction of groups with destination-side diurnal congestion.
  double dest_diurnal_fraction{0.18};
  /// Fraction of groups whose preferred route is continuously worse than an
  /// alternate (the paper's "continuous opportunity", ~1-2% of traffic) —
  /// on top of the structurally faster prepended private peers some groups
  /// have (see make_routes).
  double continuous_opportunity_fraction{0.02};
  /// Fraction of groups with a route-level diurnal congestion (peering link
  /// congestion an alternate can bypass).
  double route_diurnal_fraction{0.04};
  /// Fraction of groups with random episodic events.
  double episodic_fraction{0.25};
  int days{10};
};

/// Builds a reproducible world from the config.
World build_world(const WorldConfig& config);

/// Instantaneous path conditions for `group` via route `route_index` at
/// absolute time `t`, for a client with access rate `client_rate`.
/// Draws nothing: a session's draws never depend on its path.
PathConditions path_conditions(const UserGroupProfile& group, int route_index, SimTime t,
                               BitsPerSecond client_rate);

/// Whether `t` falls in the group's local peak hours (19:00-23:00).
bool in_peak_hours(const UserGroupProfile& group, SimTime t);

/// Draws a client access rate for one session of this group: non-HD
/// clients get 0.3-2.2 Mbps, HD-capable clients a heavy-tailed broadband
/// rate (median ~12 Mbps).
BitsPerSecond draw_client_rate(const UserGroupProfile& group, Rng& rng);

/// Count-only twin of draw_client_rate: consumes the same draws without
/// computing the rate (keep the two in step).
void skip_client_rate(const UserGroupProfile& group, Rng& rng);

}  // namespace fbedge
