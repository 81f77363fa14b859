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
//
// World *building* stays single-threaded (src/workload/world.cpp is
// calibration- and draw-order-sensitive); only the per-group measurement
// work is sharded.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/run_stats.h"
#include "runtime/shard_plan.h"
#include "runtime/thread_pool.h"
#include "workload/world.h"

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

/// The canonical sharded pipeline shape: one partial per user group,
/// folded into `init` in group-id order. `per_group(group, index)` must
/// not touch shared mutable state; `fold(acc, partial, index)` runs on the
/// calling thread only.
template <typename Result, typename PerGroup, typename Fold>
Result shard_map_reduce(const World& world, const RuntimeOptions& options,
                        Result init, PerGroup&& per_group, Fold&& fold,
                        RunStats* stats = nullptr) {
  auto partials = parallel_map(
      world.groups.size(), options,
      [&](std::size_t g) { return per_group(world.groups[g], g); }, stats);
  for (std::size_t g = 0; g < partials.size(); ++g) {
    fold(init, std::move(partials[g]), g);
  }
  return init;
}

/// shard_map_reduce with per-worker scratch arenas: `per_group(scratch,
/// group, index)` runs on the pool with a Scratch owned by the executing
/// worker (see parallel_map_scratch for the reuse/determinism contract);
/// the fold still runs on the calling thread in group-id order.
template <typename Scratch, typename Result, typename PerGroup, typename Fold>
Result shard_map_reduce_scratch(const World& world, const RuntimeOptions& options,
                                Result init, PerGroup&& per_group, Fold&& fold,
                                RunStats* stats = nullptr) {
  auto partials = parallel_map_scratch<Scratch>(
      world.groups.size(), options,
      [&](Scratch& scratch, std::size_t g) {
        return per_group(scratch, world.groups[g], g);
      },
      stats);
  for (std::size_t g = 0; g < partials.size(); ++g) {
    fold(init, std::move(partials[g]), g);
  }
  return init;
}

/// Fault-tolerant variant of shard_map_reduce for runs under fault
/// injection. `per_group(group, index, attempt)` returns nullopt to signal
/// a transient failure; the pool retries per `retry`, and groups that
/// exhaust every attempt are skipped deterministically — the fold still
/// runs in group-id order over the survivors, so the result is identical
/// for any thread count as long as per_group is deterministic in
/// (index, attempt). `on_lost(acc, index)` is called (in group-id order)
/// for each lost group so the reducer can report the gap.
template <typename Result, typename PerGroup, typename Fold, typename OnLost>
Result shard_map_reduce_failable(const World& world, const RuntimeOptions& options,
                                 const RetryPolicy& retry, Result init,
                                 PerGroup&& per_group, Fold&& fold, OnLost&& on_lost,
                                 RunStats* stats = nullptr) {
  using Partial = typename std::decay_t<
      std::invoke_result_t<PerGroup&, const UserGroupProfile&, std::size_t,
                           int>>::value_type;
  const std::size_t n = world.groups.size();
  std::vector<Partial> partials(n);
  std::vector<std::uint8_t> failed;
  ThreadPool pool(resolve_threads(options.threads));
  RunStats rs = pool.parallel_for_failable(
      ShardPlan::make(n, pool.threads()),
      [&](std::size_t g, int attempt) {
        auto part = per_group(world.groups[g], g, attempt);
        if (!part) return false;
        partials[g] = std::move(*part);
        return true;
      },
      retry, &failed);
  if (stats) stats->accumulate(rs);
  for (std::size_t g = 0; g < n; ++g) {
    if (g < failed.size() && failed[g]) {
      on_lost(init, g);
      continue;
    }
    fold(init, std::move(partials[g]), g);
  }
  return init;
}

}  // namespace fbedge
