// Splice-reduce sweep runner: baseline once, then every scenario's
// affected groups and splices in one pool pass, each scenario folded
// through its own EdgeReducer in group-id order.
#include "analysis/sweep.h"

#include <chrono>
#include <memory>
#include <utility>

#include "analysis/edge_reduce.h"
#include "analysis/ingest_cache.h"
#include "util/expect.h"

namespace fbedge {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

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

  // ---- baseline: one ingest, blobs retained for splicing -------------------
  // With a cache dir this is exactly run_edge_analysis's warm/cold logic;
  // without one the blobs only live in memory for the sweep's duration.
  std::uint64_t cache_key = 0;
  std::string artifact_path;
  IngestArtifact artifact;
  bool warm = false;
  if (cache.enabled()) {
    cache_key = ingest_cache_key(world, config, goodput);
    artifact_path = ingest_artifact_path(cache.dir, cache_key);
    const auto t0 = std::chrono::steady_clock::now();
    warm = read_ingest_artifact(artifact_path, cache_key, n, artifact);
    if (stats) stats->cache_load_seconds += seconds_since(t0);
  }
  std::vector<std::string> blobs;
  {
    EdgeReducer reducer(world, config, thresholds, comparison, goodput);
    EdgeReducer::BlobFn blob_fn;
    if (warm) {
      blob_fn = [&artifact](std::size_t g) {
        const auto [offset, length] = artifact.blobs[g];
        return GroupBlobRef{artifact.bytes.data() + offset, length};
      };
    }
    EdgeReducer::SaveFn save_fn;
    if (!warm) {
      blobs.resize(n);
      save_fn = [&blobs](std::size_t g, std::string&& blob) {
        blobs[g] = std::move(blob);
      };
    }
    reducer.reduce_range(ShardRange{0, n}, blob_fn, runtime, stats,
                         save_fn ? &save_fn : nullptr);
    if (cache.enabled() && stats) {
      const std::uint64_t hits = reducer.blob_groups();
      stats->cache_hits += hits;
      stats->cache_misses += static_cast<std::uint64_t>(n) - hits;
    }
    if (cache.enabled() && !warm) {
      const auto t0 = std::chrono::steady_clock::now();
      write_ingest_artifact(artifact_path, cache_key, blobs);
      if (stats) stats->cache_save_seconds += seconds_since(t0);
    }
    out.baseline = reducer.finish();
  }
  // Baseline blob for one group, wherever the baseline came from. A blob
  // that fails structural validation downstream simply cold-ingests —
  // for an unaffected group the perturbed profile is bitwise-equal to
  // baseline, so the fallback is byte-identical too.
  const auto baseline_blob = [&](std::size_t g) -> GroupBlobRef {
    if (warm) {
      const auto [offset, length] = artifact.blobs[g];
      return GroupBlobRef{artifact.bytes.data() + offset, length};
    }
    return GroupBlobRef{blobs[g].data(), blobs[g].size()};
  };

  // ---- scenarios: every pack, footprint and fleet hook first ---------------
  // Each scenario's perturbed world and fleet blobs must outlive the one
  // pool pass below, so they live in a per-scenario slot sized up front
  // (the reducers hold references into it).
  struct ScenarioWork {
    World perturbed;
    FaultCounters applied;
    std::vector<std::size_t> affected_index;
    std::vector<std::string> blobs;
    bool have_blobs{false};
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

    if (affected_blobs && !scen.affected.empty()) {
      w.have_blobs = affected_blobs(k, pack, w.perturbed, scen.affected, w.blobs);
      FBEDGE_EXPECT(!w.have_blobs || w.blobs.size() == scen.affected.size(),
                    "sweep blob provider must return one blob per affected group");
    }
    w.affected_index.assign(n, static_cast<std::size_t>(-1));
    for (std::size_t i = 0; i < scen.affected.size(); ++i) {
      FBEDGE_EXPECT(scen.affected[i] < n, "affected group id out of range");
      w.affected_index[scen.affected[i]] = i;
    }

    w.reducer = std::make_unique<EdgeReducer>(w.perturbed, config, thresholds,
                                              comparison, goodput);
    jobs.push_back({w.reducer.get(), ShardRange{0, n},
                    [&w, &baseline_blob](std::size_t g) -> GroupBlobRef {
                      const std::size_t ai = w.affected_index[g];
                      if (ai == static_cast<std::size_t>(-1)) return baseline_blob(g);
                      if (w.have_blobs) {
                        return GroupBlobRef{w.blobs[ai].data(), w.blobs[ai].size()};
                      }
                      return GroupBlobRef{};  // cold-ingest under the perturbed world
                    },
                    nullptr,
                    // Without fleet blobs every affected group is known
                    // cold, so the pass may split a heavy one by time.
                    w.have_blobs ? std::vector<std::size_t>{} : scen.affected});
  }

  // ---- one pool pass over every (scenario, group) slot ---------------------
  // Spliced groups read the baseline blob; groups inside a footprint read
  // the fleet's blob or cold-ingest. Each reducer folds its own partials in
  // group-id order, so every scenario is byte-identical to its independent
  // run.
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
