#include "distrib/coordinator.h"

#include <algorithm>
#include <chrono>

#include "analysis/edge_reduce.h"
#include "analysis/ingest_cache.h"
#include "distrib/shard_manifest.h"
#include "runtime/pipeline.h"
#include "util/expect.h"

namespace fbedge {
namespace {

ShardManifest expected_manifest(std::uint64_t base_key, int shard, int workers,
                                const ShardRange& range) {
  ShardManifest m;
  m.base_key = base_key;
  m.shard_index = static_cast<std::uint32_t>(shard);
  m.worker_count = static_cast<std::uint32_t>(workers);
  m.group_begin = range.begin;
  m.group_end = range.end;
  m.artifact_key = shard_artifact_key(base_key, range.begin, range.end);
  return m;
}

/// True when a valid manifest vouching for exactly `want` exists at `path`.
bool shard_published(const std::string& path, const ShardManifest& want) {
  ShardManifest got;
  return read_shard_manifest(path, got) && got == want;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::vector<FleetShardOutcome> run_worker_fleet(
    int shards, const FaultPlan& faults,
    const std::function<WorkerExit(int shard, int attempt)>& launch) {
  FBEDGE_EXPECT(shards >= 1, "fleet needs at least one shard");
  FBEDGE_EXPECT(static_cast<bool>(launch), "fleet needs a launcher");
  const int max_attempts = std::max(1, faults.worker_max_attempts);
  const RuntimeOptions spawn_runtime{shards};
  return parallel_map(
      static_cast<std::size_t>(shards), spawn_runtime, [&](std::size_t s) {
        FleetShardOutcome out;
        const int shard = static_cast<int>(s);
        for (int attempt = 0; attempt < max_attempts; ++attempt) {
          if (attempt > 0) ++out.retries;
          ++out.spawned;
          const WorkerExit exit = launch(shard, attempt);
          if (exit.max_rss_bytes > out.rss_peak) out.rss_peak = exit.max_rss_bytes;
          if (exit.status == 0) {
            out.published = true;
            break;
          }
          ++out.failures;
          // Attribute the failure to the injected site by recomputing the
          // decision (never by trusting an exit code a real bug could
          // collide with).
          if (worker_crash_decision(faults, shard, attempt)) {
            ++out.crashes;
          }
        }
        return out;
      });
}

int run_shard_worker(const World& world, const DatasetConfig& config,
                     GoodputConfig goodput, const WorkerSpec& spec,
                     const FaultPlan& faults, const RuntimeOptions& runtime,
                     RunStats* stats) {
  FBEDGE_EXPECT(spec.workers >= 1 && spec.shard >= 0 &&
                    spec.shard < spec.workers,
                "worker spec shard out of range");
  FBEDGE_EXPECT(!spec.cache_dir.empty(), "worker needs a cache dir");

  // Injected crash fires before any disk access, so a crashed attempt is
  // indistinguishable from a process that died on arrival: no partial
  // artifact, no manifest, nothing for a reader to trip over.
  if (worker_crash_decision(faults, spec.shard, spec.attempt)) {
    return kWorkerCrashExit;
  }

  const std::uint64_t base_key = ingest_cache_key(world, config, goodput);
  const ShardPlan plan = ShardPlan::make(world.groups.size(), spec.workers);
  const ShardRange range = plan.shard(spec.shard);
  const ShardManifest want =
      expected_manifest(base_key, spec.shard, spec.workers, range);
  const std::string manifest_path =
      shard_manifest_path(spec.cache_dir, base_key, spec.shard, spec.workers);
  const std::string artifact_path =
      ingest_artifact_path(spec.cache_dir, want.artifact_key);

  // Idempotence: a previous attempt (or a concurrent coordinator over the
  // same cache dir) already published this shard. The reader's open() is a
  // full-checksum validation pass in O(chunk) memory — the worker never
  // materializes the artifact it is vouching for.
  if (shard_published(manifest_path, want)) {
    IngestArtifactReader probe;
    if (probe.open(artifact_path, want.artifact_key, range.size())) {
      return 0;
    }
    // Manifest without a readable artifact: fall through and rebuild both.
  }

  IngestArtifactWriter writer;
  if (!writer.open(artifact_path, want.artifact_key, range.size())) return 1;
  bool append_ok = true;
  ingest_groups_to_blobs(
      world, config, goodput, range.ids(), runtime,
      [&](std::size_t /*group*/, std::string&& blob) {
        if (!writer.append(blob)) append_ok = false;
      },
      stats);
  if (!append_ok || !writer.finish()) return 1;
  // Artifact is live; the manifest is published last so its existence
  // implies a complete artifact.
  if (!write_shard_manifest(manifest_path, want)) return 1;
  return 0;
}

EdgeAnalysisResult run_scale_analysis(const World& world,
                                      const DatasetConfig& config,
                                      const AnalysisThresholds& thresholds,
                                      const ComparisonConfig& comparison,
                                      GoodputConfig goodput,
                                      const ScaleOptions& options,
                                      RunStats* stats) {
  FBEDGE_EXPECT(options.workers >= 1, "scale run needs at least one worker");
  FBEDGE_EXPECT(!options.cache_dir.empty(), "scale run needs a cache dir");
  FBEDGE_EXPECT(!options.faults.sampler_faults() && !options.faults.agg_faults(),
                "scale runs must not inject data faults (shared cache)");

  const std::uint64_t base_key = ingest_cache_key(world, config, goodput);
  const ShardPlan plan = ShardPlan::make(world.groups.size(), options.workers);

  // ---- Spawn phase: the shared per-shard retry loop (run_worker_fleet),
  // launching through options.launcher when set, else running the worker
  // body in-process. Outcomes come back in shard order, so the counters
  // are independent of completion order.
  const auto launch = [&](int shard, int attempt) {
    if (options.launcher) return options.launcher(shard, attempt);
    WorkerSpec spec;
    spec.shard = shard;
    spec.workers = options.workers;
    spec.attempt = attempt;
    spec.cache_dir = options.cache_dir;
    WorkerExit exit;
    exit.spawned = true;
    exit.status = run_shard_worker(world, config, goodput, spec, options.faults,
                                   RuntimeOptions{options.worker_threads});
    return exit;
  };
  const auto outcomes =
      run_worker_fleet(plan.shard_count(), options.faults, launch);

  FaultCounters worker_faults;
  std::uint64_t spawned = 0;
  std::uint64_t failures = 0;
  std::uint64_t rss_peak = 0;
  for (const FleetShardOutcome& out : outcomes) {
    spawned += out.spawned;
    failures += out.failures;
    worker_faults.worker_crashes += out.crashes;
    worker_faults.worker_retries += out.retries;
    if (!out.published) ++worker_faults.degraded_shards;
    rss_peak = std::max(rss_peak, out.rss_peak);
  }

  // ---- Reduce phase: shard by shard in shard order (= ascending group
  // order, since the plan's blocks are contiguous ascending), streaming
  // each shard's artifact in fixed-size chunks so the coordinator's peak
  // RSS is bounded by one chunk of blobs — never a whole shard, which at
  // scale is gigabytes. A shard without a valid manifest + artifact —
  // degraded, raced, or vandalized — serves empty blobs and EdgeReducer
  // cold-ingests its groups: byte-identical output, honest cache_misses.
  // Chunking preserves the reduce_range contract (disjoint ascending
  // sub-ranges), so the fold sequence is unchanged.
  constexpr std::size_t kReduceChunkGroups = 64;
  EdgeReducer reducer(world, config, thresholds, comparison, goodput,
                      options.faults);
  std::vector<std::string> chunk(kReduceChunkGroups);
  for (int s = 0; s < plan.shard_count(); ++s) {
    const ShardRange& range = plan.shard(s);
    if (range.empty()) continue;
    const ShardManifest want =
        expected_manifest(base_key, s, options.workers, range);
    IngestArtifactReader reader;
    const auto open_start = std::chrono::steady_clock::now();
    bool warm =
        shard_published(shard_manifest_path(options.cache_dir, base_key, s,
                                            options.workers),
                        want) &&
        reader.open(ingest_artifact_path(options.cache_dir, want.artifact_key),
                    want.artifact_key, range.size());
    if (stats) stats->cache_load_seconds += seconds_since(open_start);
    for (std::size_t begin = range.begin; begin < range.end;
         begin += kReduceChunkGroups) {
      const ShardRange sub{begin,
                           std::min(range.end, begin + kReduceChunkGroups)};
      std::size_t loaded = 0;
      if (warm) {
        const auto load_start = std::chrono::steady_clock::now();
        for (std::size_t g = sub.begin; g < sub.end; ++g) {
          if (!reader.next(chunk[g - sub.begin])) {
            // Validated at open(), so this means the file changed under
            // us; the groups not yet folded fall back to cold ingest.
            warm = false;
            break;
          }
          ++loaded;
        }
        if (stats) stats->cache_load_seconds += seconds_since(load_start);
      }
      const auto blob = [&](std::size_t group) -> GroupBlobRef {
        const std::size_t i = group - sub.begin;
        if (i >= loaded) return GroupBlobRef{};
        return GroupBlobRef{chunk[i].data(), chunk[i].size()};
      };
      reducer.reduce_range(sub, blob, options.reduce_runtime, stats);
    }
  }

  if (stats) {
    stats->cache_hits += reducer.blob_groups();
    stats->cache_misses += world.groups.size() - reducer.blob_groups();
    stats->workers_spawned += spawned;
    stats->worker_failures += failures;
    stats->worker_rss_peak_bytes =
        std::max(stats->worker_rss_peak_bytes, rss_peak);
    stats->faults.accumulate(worker_faults);
  }
  EdgeAnalysisResult result = reducer.finish();
  result.faults.accumulate(worker_faults);
  return result;
}

}  // namespace fbedge
