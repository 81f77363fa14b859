// Splice-reduce sweep runner: baseline once, keeping every group's
// partial, then every scenario's affected groups in one pool pass, each
// scenario folded through its own EdgeReducer in group-id order with the
// baseline's partials spliced in everywhere else.
#include "analysis/sweep.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "analysis/edge_reduce.h"
#include "util/expect.h"

namespace fbedge {

SweepOutcome run_scenario_sweep(
    const World& world, const DatasetConfig& config,
    const AnalysisThresholds& thresholds, const ComparisonConfig& comparison,
    GoodputConfig goodput, const std::vector<ScenarioPack>& packs,
    const RuntimeOptions& runtime, RunStats* stats, const FaultPlan& faults,
    const IngestCacheOptions& cache, const SweepAffectedBlobFn& affected_blobs) {
  SweepOutcome out;
  out.scenarios.reserve(packs.size());

  // Faulted sweeps bypass reuse in both directions: faulted series must
  // never be spliced into another scenario, and splicing a clean baseline
  // series into a faulted run would silently disable the injection under
  // test. Each scenario runs as an independent full (faulted) run and the
  // reuse counters stay zero — exactly the cache-bypass policy of
  // run_edge_analysis.
  if (faults.enabled()) {
    out.baseline = run_edge_analysis(world, config, thresholds, comparison,
                                     goodput, runtime, stats, faults, cache);
    for (const ScenarioPack& pack : packs) {
      SweepScenarioResult scen;
      scen.pack = pack;
      scen.result = run_edge_analysis(world, config, thresholds, comparison,
                                      goodput, runtime, stats, faults, cache,
                                      pack);
      out.scenarios.push_back(std::move(scen));
    }
    return out;
  }

  const std::size_t n = world.groups.size();

  // ---- baseline: one reduce, every group's partial kept for splicing -------
  // Exactly run_edge_analysis's warm/cold cache logic. The artifact is
  // freed when the reduce returns, and without a cache dir no blob is kept.
  EdgeReducer baseline(world, config, thresholds, comparison, goodput);
  baseline.keep_partials();
  baseline.reduce_world(runtime, stats, cache);
  out.baseline = baseline.finish();

  // ---- scenarios: every pack, footprint and fleet hook first ---------------
  // Each scenario's perturbed world and fleet blobs must outlive the one
  // pool pass below, so they live in a per-scenario slot sized up front
  // (the reducers hold references into it).
  struct ScenarioWork {
    World perturbed;
    FaultCounters applied;
    std::vector<std::string> blobs;
    std::unique_ptr<EdgeReducer> reducer;
  };
  std::vector<ScenarioWork> work(packs.size());
  std::vector<EdgeReducer::RangeJob> jobs;
  jobs.reserve(packs.size());
  out.scenarios.resize(packs.size());
  for (std::size_t k = 0; k < packs.size(); ++k) {
    const ScenarioPack& pack = packs[k];
    ScenarioWork& w = work[k];
    SweepScenarioResult& scen = out.scenarios[k];
    scen.pack = pack;
    w.perturbed = apply_scenario(world, pack, &w.applied);
    scen.affected = affected_groups(world, pack);

    bool have_blobs = false;
    if (affected_blobs && !scen.affected.empty()) {
      have_blobs = affected_blobs(k, pack, w.perturbed, scen.affected, w.blobs);
      FBEDGE_EXPECT(!have_blobs || w.blobs.size() == scen.affected.size(),
                    "sweep blob provider must return one blob per affected group");
    }
    // Only affected groups run, so the blob function sees only them.
    // Without fleet blobs it is null: every affected group is known cold,
    // so the pass may split a heavy one by time.
    EdgeReducer::BlobFn blob;
    if (have_blobs) {
      blob = [&w, &scen](std::size_t g) {
        const auto at = std::lower_bound(scen.affected.begin(), scen.affected.end(), g);
        const std::string& b = w.blobs[static_cast<std::size_t>(at - scen.affected.begin())];
        return GroupBlobRef{b.data(), b.size()};
      };
    }
    w.reducer = std::make_unique<EdgeReducer>(w.perturbed, config, thresholds,
                                              comparison, goodput);
    jobs.push_back({.reducer = w.reducer.get(),
                    .range = ShardRange{0, n},
                    .blob = std::move(blob),
                    .splice = &baseline,
                    .affected = scen.affected});
  }

  // ---- one pool pass over every scenario's affected groups -----------------
  // Groups inside a footprint read the fleet's blob or cold-ingest; every
  // other group runs nothing and folds the baseline's partial. Each reducer
  // folds in group-id order, so every scenario is byte-identical to its
  // independent run.
  EdgeReducer::reduce_all(jobs, runtime, stats);

  for (std::size_t k = 0; k < packs.size(); ++k) {
    ScenarioWork& w = work[k];
    SweepScenarioResult& scen = out.scenarios[k];
    scen.result = w.reducer->finish();
    // Count the sweep's decisions, exactly recountable from the footprint:
    // every group outside it was spliced, every group inside re-ingested
    // (in-process or by a fleet worker).
    const auto recomputed = static_cast<std::uint64_t>(scen.affected.size());
    const auto reused = static_cast<std::uint64_t>(n) - recomputed;
    scen.result.faults.accumulate(w.applied);
    scen.result.faults.scenario_groups_reused = reused;
    scen.result.faults.scenario_groups_recomputed = recomputed;
    if (stats) {
      stats->faults.accumulate(w.applied);
      stats->faults.scenario_groups_reused += reused;
      stats->faults.scenario_groups_recomputed += recomputed;
    }
  }
  return out;
}

}  // namespace fbedge
