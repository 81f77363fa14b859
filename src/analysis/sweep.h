// Incremental scenario-sweep engine: K scenarios for the cost of one
// baseline ingest plus only the perturbed groups.
//
// fbedge_whatif's per-scenario cost used to be a full re-ingest: apply the
// pack to a copied world, regenerate every group's sessions, re-analyze.
// But scenario deltas are pure seed x site x key perturbations of the
// groups matching a small topology footprint (scenario/sweep.h), and
// per-group ingest is seeded from the group key alone — groups outside
// affected_groups(world, pack) produce bitwise-identical series under the
// perturbed world. run_scenario_sweep() exploits that:
//
//   1. Reduce the baseline once, through the ingest-artifact cache when
//      a cache dir is configured (warm baseline runs skip ingest
//      entirely), keeping every group's analysis partial. The artifact is
//      freed when the baseline is done; no series blob is kept.
//   2. Per scenario: re-ingest and analyze only the affected groups under
//      the perturbed world. An unaffected group has a bitwise-equal
//      profile and series, so its partial is the baseline's: the scenario
//      splices that partial in and runs nothing for the group. Every
//      scenario's affected groups run as one pool pass
//      (EdgeReducer::reduce_all, longest expected task first), and each
//      scenario's EdgeReducer folds its own and the spliced partials in
//      ascending group-id order, so the result is byte-identical to an
//      independent run_edge_analysis of the same pack at any --threads —
//      the sweep-equivalence CI job and the verdict-hash differentials in
//      tests pin this exactly.
//
// Every splice decision is counted (FaultCounters::scenario_groups_reused
// / scenario_groups_recomputed, recountable as |groups| - |affected| and
// |affected|). Faulted plans bypass reuse in both directions: a fault
// plan with any injection site enabled degrades the sweep to independent
// full runs (faulted series must never be spliced, and reused clean
// series would silently disable the injection under test), and the reuse
// counters stay zero.
//
// The affected-group ingest can be farmed out to a worker fleet: the
// distrib coordinator (src/distrib/sweep_fleet.h) passes a
// SweepAffectedBlobFn that spawns one shard fleet per scenario and feeds
// the resulting blobs back; a shard that degrades hands back empty blobs
// and those groups cold-ingest in-process — byte-identical output, just
// slower, mirroring run_scale_analysis's degrade policy.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "analysis/edge_analysis.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"

namespace fbedge {

/// One scenario's slice of a sweep.
struct SweepScenarioResult {
  ScenarioPack pack;
  /// Ascending group ids re-ingested under the perturbed world (empty for
  /// faulted sweeps, which run every group independently).
  std::vector<std::size_t> affected;
  /// Byte-identical to run_edge_analysis(world, ..., pack); faults carry
  /// the applied scenario_* counters plus the sweep reuse decisions.
  EdgeAnalysisResult result;
};

/// Baseline plus every scenario, in pack order.
struct SweepOutcome {
  EdgeAnalysisResult baseline;
  std::vector<SweepScenarioResult> scenarios;
};

/// Optional provider of pre-ingested blobs for one scenario's affected
/// groups (the distrib fleet hook). Called once per scenario, in pack
/// order and before any scenario is reduced, with the
/// perturbed world and the ascending affected group ids; on success it
/// fills `blobs` with one serialized GroupSeries per affected group (same
/// order) and returns true. An empty string — or returning false — means
/// "no blob": those groups cold-ingest in-process under the perturbed
/// world, so a degraded or absent provider only costs time, never bytes.
using SweepAffectedBlobFn = std::function<bool(
    std::size_t scenario_index, const ScenarioPack& pack,
    const World& perturbed, const std::vector<std::size_t>& affected,
    std::vector<std::string>& blobs)>;

/// Runs `packs` as an incremental sweep over `world`. Output contract:
/// `baseline` is byte-identical to run_edge_analysis without a pack, and
/// scenarios[k].result to run_edge_analysis with packs[k], for any
/// --threads — whether the baseline came from a warm artifact, a cold
/// cache-enabled run, or an in-memory ingest, and whether affected blobs
/// came from `affected_blobs` or in-process ingest. `faults` enabled
/// degrades to independent full runs (reuse bypassed, counters zero).
SweepOutcome run_scenario_sweep(
    const World& world, const DatasetConfig& config,
    const AnalysisThresholds& thresholds, const ComparisonConfig& comparison,
    GoodputConfig goodput, const std::vector<ScenarioPack>& packs,
    const RuntimeOptions& runtime, RunStats* stats = nullptr,
    const FaultPlan& faults = {}, const IngestCacheOptions& cache = {},
    const SweepAffectedBlobFn& affected_blobs = nullptr);

}  // namespace fbedge
