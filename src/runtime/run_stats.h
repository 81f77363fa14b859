// Execution observability for sharded pipeline runs.
//
// Every parallel_for reports where the work actually went: how many tasks
// each shard executed, how many of those were stolen from another shard's
// queue, and how busy each worker was relative to the run's wall time.
// Bench binaries print this (to stderr, so measurement output stays
// byte-identical across thread counts) to prove shard utilization.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <vector>

namespace fbedge {

/// Counters for one worker/shard of a parallel run.
struct ShardStats {
  std::uint64_t tasks{0};
  std::uint64_t steals{0};
  double busy_seconds{0};
};

/// How RunStats/FaultCounters::accumulate() folds a counter: kSum adds,
/// kMax keeps the high-water mark.
enum class CounterFold : std::uint8_t { kSum, kMax };

/// The stderr line a counter is printed on (RunStats::print()). kRun is the
/// headline line and always printed; every other section prints only when
/// one of its counters is nonzero. A counter's label there is its field name
/// without the section's prefix ("cache_hits" -> "cache: hits=").
enum class CounterSection : std::uint8_t { kRun, kStream, kCache, kWorkers, kFaults, kScenario };

inline const char* section_name(CounterSection section) {
  constexpr const char* kNames[] = {"run", "stream", "cache", "workers", "faults", "scenario"};
  return kNames[static_cast<std::size_t>(section)];
}

/// One row of the counter tables, as for_each_counter() hands it out.
struct CounterRow {
  const char* field;
  const char* key;  // --json key: "runtime_" + the row's key column
  CounterFold fold;
  CounterSection section;
};

// The counter tables: the one list of every scalar counter. A row is
//   X(field, type, fold, key, section)
// with the --json key given without its "runtime_" prefix. The field
// declarations, FaultCounters::any(), both accumulate() bodies,
// RunStats::print() and for_each_counter() (which every --json writer
// iterates, bench::add_runtime_json) are generated from the rows, so a
// counter added here reaches stderr and --json with no other edit.

/// Per-fault-type counters for a run under fault injection (src/faultsim/).
/// All stay zero when no faults are injected.
#define FBEDGE_FAULT_COUNTERS(X)                                                            \
  /* Sampler-layer injections: records cut mid-line at the sampler, records */             \
  /* with mutated fields, faulted records dropped by validation, ACK-clock */               \
  /* skew vs the NIC clock, groups with most sessions dropped, groups */                    \
  /* silenced by a PoP outage. */                                                           \
  X(truncated_records,          std::uint64_t, kSum, "truncated_records",          kFaults)   \
  X(corrupt_records,            std::uint64_t, kSum, "corrupt_records",            kFaults)   \
  X(rejected_records,           std::uint64_t, kSum, "rejected_records",           kFaults)   \
  X(duplicated_samples,         std::uint64_t, kSum, "duplicated_samples",         kFaults)   \
  X(skewed_samples,             std::uint64_t, kSum, "skewed_samples",             kFaults)   \
  X(thinned_groups,             std::uint64_t, kSum, "thinned_groups",             kFaults)   \
  X(thinned_sessions,           std::uint64_t, kSum, "thinned_sessions",           kFaults)   \
  X(pop_outage_groups,          std::uint64_t, kSum, "pop_outage_groups",          kFaults)   \
  /* Aggregation-layer injections: 15-minute windows lost post-agg. */                      \
  X(dropped_windows,            std::uint64_t, kSum, "dropped_windows",            kFaults)   \
  /* Stream-layer injections (src/stream/): micro-batches held back or */                   \
  /* delivered twice on the transport between the source and the window */                  \
  /* machines, and their degraded artifact: rows that arrived after their */                \
  /* window sealed and were dropped by the window machine. */                               \
  X(stream_late_batches,        std::uint64_t, kSum, "stream_late_batches",        kFaults)   \
  X(stream_duplicate_batches,   std::uint64_t, kSum, "stream_duplicate_batches",   kFaults)   \
  X(stream_dropped_rows,        std::uint64_t, kSum, "stream_dropped_rows",        kFaults)   \
  /* Runtime-layer injections: failed shard-task attempts, re-executions */                 \
  /* after an abort, groups that exhausted every attempt. */                                \
  X(task_aborts,                std::uint64_t, kSum, "task_aborts",                kFaults)   \
  X(task_retries,               std::uint64_t, kSum, "task_retries",               kFaults)   \
  X(lost_groups,                std::uint64_t, kSum, "lost_groups",                kFaults)   \
  /* Distrib-layer injections (src/distrib/): worker processes killed by */                 \
  /* the kWorkerCrash site before publishing anything, re-spawns after a */                 \
  /* crashed attempt, shards that exhausted every attempt (reduced via */                   \
  /* cold ingest instead). */                                                               \
  X(worker_crashes,             std::uint64_t, kSum, "worker_crashes",             kWorkers)  \
  X(worker_retries,             std::uint64_t, kSum, "worker_retries",             kWorkers)  \
  X(degraded_shards,            std::uint64_t, kSum, "degraded_shards",            kWorkers)  \
  /* Scenario-pack perturbations (src/scenario/): one count per (group, */                  \
  /* delta) application -- PoP-drain reroute episodes, groups with routes */                \
  /* demoted, flash-crowd load multipliers, continent-pair RTT episodes -- */               \
  /* so tests can recount every injected perturbation from the pack alone. */               \
  X(scenario_drained_groups,    std::uint64_t, kSum, "scenario_drained_groups",    kScenario) \
  X(scenario_depref_groups,     std::uint64_t, kSum, "scenario_depref_groups",     kScenario) \
  X(scenario_flash_groups,      std::uint64_t, kSum, "scenario_flash_groups",      kScenario) \
  X(scenario_cable_cut_groups,  std::uint64_t, kSum, "scenario_cable_cut_groups",  kScenario) \
  /* Incremental sweep decisions (analysis/sweep.h): per scenario of a */                   \
  /* sweep, groups outside the scenario's affected_groups() footprint, */                   \
  /* whose baseline analysis partial is folded in unchanged, vs. groups */                  \
  /* re-ingested under the perturbed world. reused + recomputed sums to */                  \
  /* (scenario count) x (group count); both stay zero outside sweeps and */                 \
  /* in faulted runs (which bypass reuse in both directions). */                            \
  X(scenario_groups_reused,     std::uint64_t, kSum, "scenario_groups_reused",     kScenario) \
  X(scenario_groups_recomputed, std::uint64_t, kSum, "scenario_groups_recomputed", kScenario)

/// The RunStats counters, for one parallel_for or a whole run.
#define FBEDGE_RUN_COUNTERS(X)                                                              \
  X(tasks,                      std::uint64_t, kSum, "tasks",                      kRun)      \
  X(steals,                     std::uint64_t, kSum, "steals",                     kRun)      \
  X(wall_seconds,               double,        kSum, "wall_seconds",               kRun)      \
  /* Sum of per-worker busy time. */                                                        \
  X(cpu_seconds,                double,        kSum, "cpu_seconds",                kRun)      \
  /* Heap allocations during the run (all threads; runtime/alloc_counter.h). */             \
  /* The "zero per-session allocations" claim is checked against these: at */               \
  /* steady state they scale with windows, not sessions. */                                 \
  X(alloc_count,                std::uint64_t, kSum, "alloc_count",                kRun)      \
  X(alloc_bytes,                std::uint64_t, kSum, "alloc_bytes",                kRun)      \
  /* Sampled-RSS high-water mark (alloc_counter.h rss_sample()): the largest */             \
  /* current RSS seen at the sampling points the run passed through (task */                \
  /* boundaries, stream window seals). The number the streaming monitor's */                \
  /* and the shard coordinator's flat-memory claims are judged by. */                       \
  X(rss_sampled_peak_bytes,     std::uint64_t, kMax, "rss_peak",                   kRun)      \
  /* Streaming monitor (src/stream/); zero for runs that never touch it. */                 \
  /* The open-windows peak across all group machines is the streaming */                    \
  /* memory model in one number. */                                                         \
  X(stream_windows_sealed,      std::uint64_t, kSum, "stream_windows_sealed",      kStream)   \
  X(stream_watermark_advances,  std::uint64_t, kSum, "stream_watermark_advances",  kStream)   \
  X(stream_open_windows_peak,   std::uint64_t, kMax, "stream_open_windows_peak",   kStream)   \
  /* Ingest-artifact cache (analysis/ingest_cache.h): groups served from a */               \
  /* cached artifact vs. groups that had to cold-ingest, and the wall time */               \
  /* spent reading/validating and writing artifacts. Zero when no cache */                  \
  /* directory is configured. */                                                            \
  X(cache_hits,                 std::uint64_t, kSum, "cache_hits",                 kCache)    \
  X(cache_misses,               std::uint64_t, kSum, "cache_misses",               kCache)    \
  X(cache_load_seconds,         double,        kSum, "cache_load_seconds",         kCache)    \
  X(cache_save_seconds,         double,        kSum, "cache_save_seconds",         kCache)    \
  /* Multi-process shard coordinator (src/distrib/): worker subprocesses */                 \
  /* launched (re-spawns included), attempts that exited nonzero or were */                 \
  /* signal-killed, and the largest peak RSS one worker reported */                         \
  /* (ru_maxrss). Zero for in-process runs. */                                              \
  X(workers_spawned,            std::uint64_t, kSum, "workers_spawned",            kWorkers)  \
  X(worker_failures,            std::uint64_t, kSum, "worker_failures",            kWorkers)  \
  X(worker_rss_peak_bytes,      std::uint64_t, kMax, "worker_rss_peak",            kWorkers)

#define FBEDGE_DECLARE_COUNTER(field, type, fold, key, section) type field{0};
#define FBEDGE_FOLD_COUNTER(field, type, fold, key, section)                    \
  field = CounterFold::fold == CounterFold::kMax ? std::max(field, other.field) \
                                                 : field + other.field;
#define FBEDGE_VISIT_COUNTER(field, type, fold, key, section)                    \
  f(CounterRow{#field, "runtime_" key, CounterFold::fold, CounterSection::section}, \
    s.field);

/// Lives here -- not in faultsim -- because the runtime and analysis layers
/// carry these counters through RunStats without depending on the fault
/// plan itself.
struct FaultCounters {
  FBEDGE_FAULT_COUNTERS(FBEDGE_DECLARE_COUNTER)

  bool any() const {
#define FBEDGE_NONZERO(field, type, fold, key, section) || field != 0
    return false FBEDGE_FAULT_COUNTERS(FBEDGE_NONZERO);
#undef FBEDGE_NONZERO
  }

  void accumulate(const FaultCounters& other) {
    FBEDGE_FAULT_COUNTERS(FBEDGE_FOLD_COUNTER)
  }
};

/// Number of FaultCounters rows; every one is a std::uint64_t.
#define FBEDGE_COUNT_ROW(field, type, fold, key, section) +1
inline constexpr std::size_t kFaultCounterRows = 0 FBEDGE_FAULT_COUNTERS(FBEDGE_COUNT_ROW);
#undef FBEDGE_COUNT_ROW

/// Aggregate counters for one parallel_for (or a whole bench run when
/// accumulated across phases).
struct RunStats {
  int threads{0};
  FBEDGE_RUN_COUNTERS(FBEDGE_DECLARE_COUNTER)
  /// Which columnar-kernel path the run dispatched to (util/simd.h):
  /// 1 = AVX2, 0 = scalar reference, -1 = unknown (stats assembled outside
  /// the sharded runtime). Carried through so benches and --verbose can
  /// prove a run did not silently fall back to scalar.
  int simd_avx2{-1};
  std::vector<ShardStats> shards;
  FaultCounters faults;

  /// Fraction of the available thread-seconds spent executing tasks.
  double utilization() const {
    return threads > 0 && wall_seconds > 0
               ? cpu_seconds / (wall_seconds * threads)
               : 0.0;
  }

  /// Folds another run's counters in (multi-phase benches); wall times add,
  /// peaks take the max, shard vectors add element-wise.
  void accumulate(const RunStats& other) {
    threads = std::max(threads, other.threads);
    FBEDGE_RUN_COUNTERS(FBEDGE_FOLD_COUNTER)
    if (other.simd_avx2 >= 0) simd_avx2 = other.simd_avx2;
    faults.accumulate(other.faults);
    if (shards.size() < other.shards.size()) shards.resize(other.shards.size());
    for (std::size_t s = 0; s < other.shards.size(); ++s) {
      shards[s].tasks += other.shards[s].tasks;
      shards[s].steals += other.shards[s].steals;
      shards[s].busy_seconds += other.shards[s].busy_seconds;
    }
  }

  /// Human-readable dump. Defaults to stderr so stdout (the measurement
  /// output) is independent of thread count and machine speed.
  void print(const char* label, std::FILE* out = stderr) const;
};

/// Calls f(const CounterRow&, counter&) for every FaultCounters row, in
/// table order. `Faults` is FaultCounters or const FaultCounters.
template <class Faults, class F>
  requires std::same_as<std::remove_const_t<Faults>, FaultCounters>
void for_each_counter(Faults& s, F&& f) {
  FBEDGE_FAULT_COUNTERS(FBEDGE_VISIT_COUNTER)
}

/// Calls f(const CounterRow&, counter&) for every RunStats row, then for
/// every row of its FaultCounters.
template <class Stats, class F>
  requires std::same_as<std::remove_const_t<Stats>, RunStats>
void for_each_counter(Stats& s, F&& f) {
  FBEDGE_RUN_COUNTERS(FBEDGE_VISIT_COUNTER)
  for_each_counter(s.faults, f);
}

inline void RunStats::print(const char* label, std::FILE* out) const {
  const auto print_section = [&](CounterSection section) {
    const char* prefix = section_name(section);
    const std::size_t prefix_len = std::strlen(prefix);
    for_each_counter(*this, [&](const CounterRow& row, auto value) {
      if (row.section != section) return;
      const char* name = row.field;
      if (std::strncmp(name, prefix, prefix_len) == 0 && name[prefix_len] == '_') {
        name += prefix_len + 1;
      }
      if constexpr (std::is_same_v<decltype(value), double>) {
        std::fprintf(out, " %s=%.3f", name, value);
      } else {
        std::fprintf(out, " %s=%llu", name, static_cast<unsigned long long>(value));
      }
    });
  };
  std::fprintf(out, "[runtime] %s: threads=%d", label, threads);
  print_section(CounterSection::kRun);
  std::fprintf(out, " util=%.1f%% simd=%s\n", 100.0 * utilization(),
               simd_avx2 == 1 ? "avx2" : simd_avx2 == 0 ? "scalar" : "unknown");
  for (const CounterSection section :
       {CounterSection::kStream, CounterSection::kCache, CounterSection::kWorkers,
        CounterSection::kFaults, CounterSection::kScenario}) {
    bool nonzero = false;
    for_each_counter(*this, [&](const CounterRow& row, auto value) {
      nonzero = nonzero || (row.section == section && value != 0);
    });
    if (!nonzero) continue;
    std::fprintf(out, "[runtime]   %s:", section_name(section));
    print_section(section);
    std::fprintf(out, "\n");
  }
  for (std::size_t s = 0; s < shards.size(); ++s) {
    std::fprintf(out, "[runtime]   shard %zu: tasks=%llu steals=%llu busy=%.3fs\n",
                 s, static_cast<unsigned long long>(shards[s].tasks),
                 static_cast<unsigned long long>(shards[s].steals),
                 shards[s].busy_seconds);
  }
}

#undef FBEDGE_DECLARE_COUNTER
#undef FBEDGE_FOLD_COUNTER
#undef FBEDGE_VISIT_COUNTER

}  // namespace fbedge
