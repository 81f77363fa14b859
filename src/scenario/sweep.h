// Affected-group footprints: which groups a ScenarioPack can touch.
//
// Every scenario delta is a pure perturbation of the groups matching a
// small topology predicate — a drain touches the groups one PoP serves, a
// depref the groups whose route ranking actually changes, a flash crowd
// one country's groups, a cable cut the remote-served groups crossing one
// continent pair. Per-group ingest is itself a pure function of the group
// profile (the generator seeds every group's stream from the group key
// alone), so a group outside a pack's footprint produces a bitwise-
// identical ingest artifact under the perturbed world. That is the fact
// the incremental sweep engine (analysis/sweep.h) is built on: re-ingest
// only affected_groups(), splice the baseline's per-group analysis for
// everyone else, and the result is byte-identical to an independent full
// run.
//
// The footprint is computed against the *baseline* world. This is exact,
// not just conservative: apply_scenario's canonical order (depref, drain,
// cable-cut, flash) never changes a matching attribute before it is
// matched — depref permutes routes but preserves the route multiset and
// every group attribute; drains/cuts only append episodes; flash only
// scales arrivals — so the baseline predicates see exactly what apply
// sees. tests/scenario_test.cpp pins both directions (outside groups
// bitwise-identical, at least one inside group differing per delta kind),
// and the faultsim recount extension ties the set to the scenario_*
// apply counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "scenario/scenario.h"
#include "workload/world.h"

namespace fbedge {

/// The affected-key footprint of one pack: per delta kind, the topology
/// keys it can reach. Kept as keys (not group ids) so callers can reason
/// about what a pack touches without a world; affected_groups() maps the
/// footprint through the world's group -> (PoP, route, country, path)
/// attributes to a concrete group-id set.
struct ScenarioFootprint {
  /// Drains resolve to serving-PoP ids (every group the PoP serves).
  std::vector<PopId> drain_pops;
  /// Deprefs keep their (asn, continent-scope) route keys; whether a
  /// specific group is affected additionally depends on whether demoting
  /// those transit routes changes its ranking at all (exact, per group).
  std::vector<DepreferDelta> depref_routes;
  /// Flash crowds resolve to country keys.
  std::vector<std::uint32_t> flash_countries;
  /// Cable cuts resolve to unordered continent path keys (lo, hi).
  std::vector<std::pair<Continent, Continent>> cut_paths;

  bool empty() const {
    return drain_pops.empty() && depref_routes.empty() &&
           flash_countries.empty() && cut_paths.empty();
  }
};

/// Resolves a pack's deltas to their affected-key footprint against
/// `world` (fail-fast on packs validate_scenario would reject). Depref
/// keys are listed in apply_scenario's canonical order so per-group
/// membership simulation matches the applied permutation sequence.
ScenarioFootprint scenario_footprint(const World& world,
                                     const ScenarioPack& pack);

/// Whether `group` falls inside the footprint — i.e. whether
/// apply_scenario would touch it (append an episode, permute its routes,
/// or scale its arrivals). Pure in (world, footprint, group).
bool footprint_covers_group(const World& world, const ScenarioFootprint& fp,
                            const UserGroupProfile& group);

/// Ascending group ids apply_scenario(world, pack) would touch: exactly
/// the groups whose ingest may differ under the perturbed world. Empty
/// pack -> empty set.
std::vector<std::size_t> affected_groups(const World& world,
                                         const ScenarioPack& pack);

/// Content identity of a pack (FNV-1a over its canonical serialized form
/// plus the seed): two packs hash equal iff they describe the same
/// scenario. Sweep artifacts are keyed by ingest content-hash x this, so
/// per-scenario artifacts from different packs can never collide.
std::uint64_t scenario_pack_hash(const ScenarioPack& pack);

}  // namespace fbedge
