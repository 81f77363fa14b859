// Sharded map-reduce over the measurement pipeline, with deterministic
// merge.
//
// The workload -> sampler -> goodput -> agg pipeline shares no state
// between user groups until aggregation, and each group's sessions come
// from an Rng stream derived from (seed, group id) alone. So the parallel
// schedule is: map every group to a partial result on the pool (any
// thread, any order), then fold the partials IN GROUP-ID ORDER. The fold
// order is what makes results byte-identical for every thread count,
// including 1 — reducers only ever see the same sequence of merges.
// parallel_map / parallel_map_scratch return the partials indexed by
// group; the caller runs that fold (EdgeReducer is the analysis one).
//
// World *building* stays single-threaded (src/workload/world.cpp is
// calibration- and draw-order-sensitive); only the per-group measurement
// work is sharded.
#pragma once

#include <type_traits>
#include <vector>

#include "runtime/run_stats.h"
#include "runtime/shard_plan.h"
#include "runtime/thread_pool.h"

namespace fbedge {

/// Execution knobs threaded through the analysis runners and benches.
struct RuntimeOptions {
  /// Worker threads; 0 means hardware concurrency.
  int threads{0};

  static RuntimeOptions sequential() { return RuntimeOptions{1}; }
};

/// Maps fn(i) over [0, n), returning the results indexed by i. The result
/// type must be default-constructible and movable; each slot is written by
/// exactly one task.
template <typename Fn>
auto parallel_map(std::size_t n, const RuntimeOptions& options, Fn&& fn,
                  RunStats* stats = nullptr) {
  using Partial = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<Partial> partials(n);
  ThreadPool pool(resolve_threads(options.threads));
  RunStats rs = pool.parallel_for(
      ShardPlan::make(n, pool.threads()),
      [&](std::size_t i) { partials[i] = fn(i); });
  if (stats) stats->accumulate(rs);
  return partials;
}

/// Runs fn(scratch, i) for every i in [0, n) on the pool, where `scratch`
/// is a per-worker Scratch object (one per pool thread,
/// default-constructed). A worker owns its scratch slot exclusively while
/// inside a task, so the scratch can hold reusable arenas (SessionBatch,
/// coalesced-txn buffers, ...) that persist across all the tasks that
/// worker runs — per-task allocations happen only while an arena is still
/// growing toward its high-water mark. Determinism: fn must fully
/// overwrite/clear whatever scratch state it reads, so a task's outputs
/// are independent of which worker (and which scratch history) ran it.
template <typename Scratch, typename Fn>
void parallel_for_scratch(std::size_t n, const RuntimeOptions& options, Fn&& fn,
                          RunStats* stats = nullptr) {
  ThreadPool pool(resolve_threads(options.threads));
  std::vector<Scratch> scratch(static_cast<std::size_t>(pool.threads()));
  RunStats rs = pool.parallel_for_workers(
      ShardPlan::make(n, pool.threads()), [&](int worker, std::size_t i) {
        fn(scratch[static_cast<std::size_t>(worker)], i);
      });
  if (stats) stats->accumulate(rs);
}

/// parallel_for_scratch whose task returns a value: the results, indexed
/// by i (each slot written by exactly one task, merged by index).
template <typename Scratch, typename Fn>
auto parallel_map_scratch(std::size_t n, const RuntimeOptions& options, Fn&& fn,
                          RunStats* stats = nullptr) {
  using Partial = std::decay_t<std::invoke_result_t<Fn&, Scratch&, std::size_t>>;
  std::vector<Partial> partials(n);
  parallel_for_scratch<Scratch>(
      n, options,
      [&](Scratch& scratch, std::size_t i) { partials[i] = fn(scratch, i); }, stats);
  return partials;
}

}  // namespace fbedge
