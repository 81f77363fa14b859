// Artifact-driven reduce: the analysis half of run_edge_analysis as a
// standalone, resumable fold.
//
// run_edge_analysis couples three things: ingesting every group's sessions,
// (de)serializing per-group series through the ingest-artifact cache, and
// folding per-group analysis partials into the final figures/tables. The
// multi-process shard coordinator (src/distrib/) needs those pieces
// separately — workers run ingest for a group range and persist blobs, the
// coordinator loads blobs shard by shard and folds. EdgeReducer is that
// fold: feed it contiguous, ascending group ranges (each with a
// blob-provider), then finish(). Because every partial is merged in
// group-id order regardless of how the ranges were produced — one process
// or many, any thread count per range — the finished result is
// byte-identical to a single-process run_edge_analysis over the same
// world. run_edge_analysis itself is rebuilt on top of this class (one
// reduce_world over [0, n)), so the two paths cannot drift.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/edge_analysis.h"
#include "runtime/shard_plan.h"

namespace fbedge {

/// Borrowed view of one group's serialized GroupSeries (agg/series_io.h
/// format, exactly one group's blob — not a whole artifact file). An empty
/// ref means "no blob; cold-ingest this group".
struct GroupBlobRef {
  const char* data{nullptr};
  std::size_t size{0};

  bool empty() const { return data == nullptr || size == 0; }
};

/// Incremental group-id-order fold of per-group analysis partials.
///
/// Contract: reduce_range() calls must cover disjoint ranges in ascending
/// order (the coordinator's shards are contiguous ascending blocks, so
/// iterating shards in shard order satisfies this). Within a range the
/// reducer parallelizes the per-group work across `runtime.threads` and
/// folds partials in ascending group order, so the merge sequence seen by
/// the accumulator — and therefore every bit of finish()'s result — is
/// independent of both the range partitioning and the thread count.
class EdgeReducer {
 public:
  /// `faults` drives the sampler/aggregation injection sites of any
  /// cold-ingest fallback (zeroed plan = fault-free path, byte-identical
  /// to a build without faultsim) and the runtime layer's task aborts:
  /// each group's task draws task_abort_decision for attempts 0, 1, ...
  /// before any blob lookup or ingest, and a group whose every attempt
  /// aborts is lost — its partial is never merged, and only its
  /// task_aborts / task_retries / lost_groups reach the result's and the
  /// RunStats' FaultCounters.
  EdgeReducer(const World& world, const DatasetConfig& config,
              const AnalysisThresholds& thresholds,
              const ComparisonConfig& comparison, GoodputConfig goodput,
              const FaultPlan& faults = {});
  ~EdgeReducer();

  EdgeReducer(const EdgeReducer&) = delete;
  EdgeReducer& operator=(const EdgeReducer&) = delete;

  /// Returns the blob for a group, or an empty ref to force cold ingest.
  /// Called from pool workers; must be pure per group.
  using BlobFn = std::function<GroupBlobRef(std::size_t group)>;
  /// Receives the serialized series of a cold-ingested group. Called from
  /// pool workers, exactly once per group; distinct groups may be saved
  /// concurrently, so the sink must tolerate that (indexing a per-group
  /// slot suffices).
  using SaveFn = std::function<void(std::size_t group, std::string&& blob)>;

  /// Analyzes groups [range.begin, range.end) and folds their partials
  /// into the running total. Groups whose blob is empty or fails
  /// structural validation are cold-ingested (identical output either
  /// way — serialization round-trips bitwise). `save`, when non-null, is
  /// invoked for every cold-ingested group. The one-job case of
  /// reduce_all().
  void reduce_range(const ShardRange& range, const BlobFn& blob,
                    const RuntimeOptions& runtime, RunStats* stats = nullptr,
                    const SaveFn* save = nullptr);

  /// reduce_range() over every group of the world, through the
  /// ingest-artifact cache when `cache` is enabled and the reducer is
  /// fault-free: a warm run analyzes the artifact's blobs, a cold one
  /// writes the artifact after the pass. The artifact is held only for the
  /// call. Counts cache hits and misses and the load/save seconds into
  /// `stats`.
  void reduce_world(const RuntimeOptions& runtime, RunStats* stats,
                    const IngestCacheOptions& cache);

  /// Keeps every group partial this reducer folds from now on, so that a
  /// later reduce_all() job can splice it (RangeJob::splice). A fault-free
  /// reducer only; the kept partials outlive finish().
  void keep_partials();

  /// One reducer's share of a reduce_all() pass: the arguments of one
  /// reduce_range() call, plus an optional splice source.
  struct RangeJob {
    EdgeReducer* reducer{nullptr};
    ShardRange range;
    /// A null `blob` means every group of the job cold-ingests. Only such
    /// known-cold groups carry a cost estimate, which orders the pass and
    /// may split the group (reduce_all()).
    BlobFn blob;
    const SaveFn* save{nullptr};
    /// A reducer that kept its partials (keep_partials()) over a world whose
    /// groups outside `affected` are bitwise-equal to this job's. Each such
    /// group's slot runs no task: the fold merges the source's kept partial
    /// in its place, which is exactly the partial this job would compute.
    /// Null: every group of the range runs.
    const EdgeReducer* splice{nullptr};
    /// With `splice`, the ascending ids of the groups this job analyzes
    /// itself.
    std::vector<std::size_t> affected{};
  };

  /// Runs every job's (reducer, group) slots as one pool pass, then folds
  /// each reducer's partials in ascending group order, exactly as
  /// reduce_range() would. Reducers must be distinct; each job obeys
  /// reduce_range()'s contract.
  ///
  /// The schedule is longest-expected-task first: each known-cold task is
  /// estimated by its expected sessions, every other task by 0, and
  /// workers claim the tasks in stably sorted descending order from one
  /// shared cursor, so the heaviest cold ingests start first and the
  /// cheap blob loads fill in behind them.
  ///
  /// A known-cold group of a fault-free reducer whose expected sessions
  /// exceed (the pass's known-cold expected sessions) / threads is split
  /// by time: each day of windows is its own task, started from a cursor
  /// the count-only skip computes in order inside the pass, and the last
  /// chunk to finish assembles the series, saves and analyzes it. The
  /// assembled series is byte-identical to a whole-group ingest, so the
  /// split never shows in any output (RunStats::tasks counts its tasks).
  static void reduce_all(const std::vector<RangeJob>& jobs,
                         const RuntimeOptions& runtime, RunStats* stats = nullptr);

  /// Groups analyzed from a provided blob so far (the cache-hit count;
  /// spliced groups are not analyzed, so they do not count).
  std::uint64_t blob_groups() const;

  /// Normalizes and returns the final result. The reducer is spent
  /// afterwards (the accumulator has been moved out).
  EdgeAnalysisResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The ingest half of a shard or sweep worker: generates sessions for
/// exactly `groups` (ascending ids; a shard passes its ShardRange::ids()),
/// serializes each group's series, and hands the blobs to `sink` in list
/// order on the calling thread, each with its global group id. Work is
/// chunked (`chunk_groups` per parallel batch) so at most one chunk of
/// blobs is in memory at a time — per-process RSS stays flat in the list
/// size, which is what lets a worker process thousands of groups in a
/// small footprint. Per-group ingest is seeded from the group key alone,
/// so the blobs are identical to what a whole-world ingest would produce
/// for those groups. Ingest is fault-free (the distributed cache must
/// never hold faulted series).
void ingest_groups_to_blobs(
    const World& world, const DatasetConfig& config, GoodputConfig goodput,
    const std::vector<std::size_t>& groups, const RuntimeOptions& runtime,
    const std::function<void(std::size_t group, std::string&& blob)>& sink,
    RunStats* stats = nullptr, std::size_t chunk_groups = 64);

}  // namespace fbedge
