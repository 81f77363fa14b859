// Tests for the sharded pipeline runtime: ShardPlan partitioning, the
// work-stealing ThreadPool, and the determinism guarantee — analysis
// results must be byte-identical for any thread count, including 1.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/edge_analysis.h"
#include "analysis/figures.h"
#include "runtime/alloc_counter.h"
#include "runtime/pipeline.h"
#include "runtime/run_stats.h"
#include "runtime/shard_plan.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"
#include "workload/world.h"

namespace fbedge {
namespace {

// ---------------------------------------------------------------------------
// ShardPlan.
// ---------------------------------------------------------------------------

TEST(ShardPlan, CoversRangeContiguouslyAndBalanced) {
  for (const std::size_t n : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
    for (const int k : {1, 2, 3, 8, 17}) {
      const ShardPlan plan = ShardPlan::make(n, k);
      ASSERT_EQ(plan.shard_count(), k);
      EXPECT_EQ(plan.size(), n);
      std::size_t covered = 0, lo = n, hi = 0;
      for (int s = 0; s < k; ++s) {
        const ShardRange& r = plan.shard(s);
        ASSERT_LE(r.begin, r.end);
        if (s > 0) {
          EXPECT_EQ(r.begin, plan.shard(s - 1).end);  // contiguous
        }
        covered += r.size();
        lo = std::min(lo, r.size());
        hi = std::max(hi, r.size());
      }
      EXPECT_EQ(covered, n) << "n=" << n << " k=" << k;
      EXPECT_LE(hi - lo, 1u) << "n=" << n << " k=" << k;  // balanced
      EXPECT_EQ(plan.shard(0).begin, 0u);
      EXPECT_EQ(plan.shard(k - 1).end, n);
    }
  }
}

TEST(ShardPlan, EmptyShardsWhenFewerItemsThanShards) {
  const ShardPlan plan = ShardPlan::make(3, 8);
  int non_empty = 0;
  for (int s = 0; s < plan.shard_count(); ++s) {
    if (!plan.shard(s).empty()) ++non_empty;
  }
  EXPECT_EQ(non_empty, 3);
}

TEST(ResolveThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(5), 5);
  EXPECT_GE(resolve_threads(0), 1);
}

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    constexpr std::size_t kTasks = 500;
    std::vector<std::atomic<int>> hits(kTasks);
    const RunStats stats =
        pool.parallel_for(kTasks, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
    EXPECT_EQ(stats.tasks, kTasks);
    EXPECT_EQ(stats.threads, threads);
    EXPECT_EQ(stats.shards.size(), static_cast<std::size_t>(threads));
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int job = 0; job < 10; ++job) {
    const RunStats stats =
        pool.parallel_for(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(stats.tasks, 100u);
  }
  EXPECT_EQ(sum.load(), 10ull * (99ull * 100ull / 2));
}

TEST(ThreadPool, EmptyRunCompletes) {
  ThreadPool pool(3);
  const RunStats stats = pool.parallel_for(0, [](std::size_t) { FAIL(); });
  EXPECT_EQ(stats.tasks, 0u);
}

// Regression test for the allocation-counter registry under thread churn.
// glibc reuses an exited thread's static TLS block for the next thread it
// creates; when the registry nodes lived inside the thread_local object, a
// recycled node address got re-pushed onto the lock-free list and closed it
// into a cycle — alloc_counters_now() then spun forever. Churning many
// short-lived pools is exactly the trigger, so this test hangs (and times
// out) if node addresses are ever recycled again.
TEST(ThreadPool, AllocCountersSurviveThreadChurn) {
  const AllocCounters before = alloc_counters_now();
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 64; ++round) {
    ThreadPool pool(4);  // created and destroyed: 3 worker threads per round
    pool.parallel_for(ShardPlan::make(16, pool.threads()), [&](std::size_t i) {
      // Allocate on every worker so each thread registers a counter node.
      std::vector<std::size_t> v(8, i);
      sum.fetch_add(std::accumulate(v.begin(), v.end(), std::size_t{0}),
                    std::memory_order_relaxed);
    });
  }
  // Traversal terminates (no cycle) and the tally moved forward: the loop
  // above performed at least one counted allocation per round, and exited
  // threads must have flushed into the global totals rather than vanished.
  const AllocCounters after = alloc_counters_now();
  EXPECT_GT(after.count, before.count);
  EXPECT_GT(after.bytes, before.bytes);
  EXPECT_GT(sum.load(), 0u);
}

TEST(ThreadPool, StealsUnderSkewedShardSizes) {
  // Shard 0 gets a long task first, so its owner stalls while holding most
  // of its range; the other worker must steal to finish the job.
  ThreadPool pool(2);
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  const RunStats stats = pool.parallel_for(kTasks, [&](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ++hits[i];
  });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_EQ(stats.tasks, kTasks);
  EXPECT_GT(stats.steals, 0u);
  std::uint64_t shard_tasks = 0;
  for (const auto& s : stats.shards) shard_tasks += s.tasks;
  EXPECT_EQ(shard_tasks, kTasks);
}

TEST(ThreadPoolDeathTest, ThrowingTaskAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.parallel_for(1, [](std::size_t) { throw 42; });
      },
      "fail fast");
}

// ---------------------------------------------------------------------------
// parallel_map.
// ---------------------------------------------------------------------------

TEST(ParallelMap, ResultsIndexedByTask) {
  RunStats stats;
  const auto squares = parallel_map(
      200, RuntimeOptions{4}, [](std::size_t i) { return i * i; }, &stats);
  ASSERT_EQ(squares.size(), 200u);
  for (std::size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
  EXPECT_EQ(stats.tasks, 200u);
}

TEST(ParallelMap, StatsAccumulateAcrossCalls) {
  RunStats stats;
  parallel_map(10, RuntimeOptions{2}, [](std::size_t i) { return i; }, &stats);
  parallel_map(15, RuntimeOptions{2}, [](std::size_t i) { return i; }, &stats);
  EXPECT_EQ(stats.tasks, 25u);
}

// ---------------------------------------------------------------------------
// Counter table (runtime/run_stats.h).
// ---------------------------------------------------------------------------

// A FaultCounters field declared outside the table fails this.
static_assert(sizeof(FaultCounters) == kFaultCounterRows * sizeof(std::uint64_t));

/// Sets the visitor's n-th counter (0-based) of `stats` to `value`.
template <class Stats>
void set_counter(Stats& stats, std::size_t n, std::uint64_t value) {
  std::size_t i = 0;
  for_each_counter(stats, [&](const CounterRow&, auto& field) {
    if (i++ == n) field = static_cast<std::remove_reference_t<decltype(field)>>(value);
  });
}

TEST(RunStats, CounterTableDrivesAccumulateAnyAndJson) {
  struct Seen {
    std::string field;
    std::string key;
    CounterFold fold;
    double value;
  };
  const auto rows = [](const RunStats& stats) {
    std::vector<Seen> out;
    for_each_counter(stats, [&](const CounterRow& row, auto value) {
      out.push_back({row.field, row.key, row.fold, static_cast<double>(value)});
    });
    return out;
  };

  RunStats stats;
  const std::size_t n = rows(stats).size();
  for (std::size_t i = 0; i < n; ++i) set_counter(stats, i, i + 1);
  const std::vector<Seen> set = rows(stats);
  ASSERT_EQ(set.size(), n);
  // Distinct values read back: no two rows name the same field.
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(set[i].value, static_cast<double>(i + 1));

  RunStats folded = stats;
  folded.accumulate(stats);
  const std::vector<Seen> after = rows(folded);
  std::set<std::string> max_rows;
  for (std::size_t i = 0; i < n; ++i) {
    if (set[i].fold == CounterFold::kMax) {
      max_rows.insert(set[i].field);
      EXPECT_EQ(after[i].value, set[i].value) << set[i].field;
    } else {
      EXPECT_EQ(after[i].value, 2 * set[i].value) << set[i].field;
    }
  }
  EXPECT_EQ(max_rows, (std::set<std::string>{"rss_sampled_peak_bytes",
                                             "stream_open_windows_peak",
                                             "worker_rss_peak_bytes"}));

  EXPECT_FALSE(FaultCounters{}.any());
  for (std::size_t i = 0; i < kFaultCounterRows; ++i) {
    FaultCounters faults;
    set_counter(faults, i, 1);
    EXPECT_TRUE(faults.any()) << "fault row " << i;
  }

  // Every counter reaches --json once, under runtime_, beside the two
  // hand-written keys bench::add_runtime_json adds.
  std::set<std::string> keys{"runtime_threads", "runtime_simd_avx2"};
  for (const Seen& row : set) {
    EXPECT_EQ(row.key.rfind("runtime_", 0), 0u) << row.key;
    EXPECT_TRUE(keys.insert(row.key).second) << "duplicate key " << row.key;
  }
  EXPECT_EQ(keys.size(), n + 2);

  // stderr: CI parses "LABEL: threads=N tasks=N" and greps
  // "cache: hits=N misses=N".
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  stats.print("table", out);
  std::rewind(out);
  std::string text;
  for (int c; (c = std::fgetc(out)) != EOF;) text.push_back(static_cast<char>(c));
  std::fclose(out);
  EXPECT_NE(text.find("[runtime] table: threads=0 tasks=1 steals=2 "), std::string::npos)
      << text;
  EXPECT_NE(text.find("cache: hits=11 misses=12 "), std::string::npos) << text;
  EXPECT_NE(text.find(" lost_groups="), std::string::npos) << text;
}

TEST(EntityStream, MatchesDirectSeedDerivation) {
  // The per-group streams must be bit-identical to the derivation the
  // generator used before the runtime existed — this is what keeps the
  // calibrated world outputs unchanged.
  const std::uint64_t seed = 2019, key = 0xabcdef12345ull;
  Rng direct(hash_mix(seed ^ key));
  Rng stream = entity_stream(seed, key);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(direct(), stream());
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: the acceptance criterion. Same seed, different
// thread counts, exactly equal results.
// ---------------------------------------------------------------------------

WorldConfig small_world() {
  WorldConfig wc;
  wc.seed = 2019;
  wc.groups_per_continent = 2;
  wc.days = 1;
  return wc;
}

TEST(Determinism, GlobalPerformanceIdenticalAcrossThreadCounts) {
  const World world = build_world(small_world());
  DatasetConfig dc;
  dc.seed = 2019;
  dc.days = 1;
  dc.session_scale = 0.1;

  const auto seq =
      measure_global_performance(world, dc, {}, RuntimeOptions::sequential());
  const auto par = measure_global_performance(world, dc, {}, RuntimeOptions{4});

  EXPECT_EQ(seq.sessions_total, par.sessions_total);
  EXPECT_EQ(seq.sessions_hd_testable, par.sessions_hd_testable);
  EXPECT_EQ(seq.filtered_hosting, par.filtered_hosting);
  ASSERT_GT(seq.sessions_total, 0u);
  auto seq_minrtt = seq.minrtt_all;
  auto par_minrtt = par.minrtt_all;
  auto seq_hd = seq.hdratio_all;
  auto par_hd = par.hdratio_all;
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_EQ(seq_minrtt.quantile(q), par_minrtt.quantile(q)) << "q=" << q;
    EXPECT_EQ(seq_hd.quantile(q), par_hd.quantile(q)) << "q=" << q;
  }
  for (std::size_t c = 0; c < seq.minrtt_continent.size(); ++c) {
    auto a = seq.minrtt_continent[c];
    auto b = par.minrtt_continent[c];
    EXPECT_EQ(a.size(), b.size());
    if (!a.empty()) {
      EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
    }
  }
}

TEST(Determinism, EdgeAnalysisIdenticalAcrossThreadCounts) {
  const World world = build_world(small_world());
  DatasetConfig dc;
  dc.seed = 2019;
  dc.days = 1;
  dc.session_scale = 0.25;

  const auto seq = run_edge_analysis(world, dc, {}, {}, {},
                                     RuntimeOptions::sequential());
  const auto par = run_edge_analysis(world, dc, {}, {}, {}, RuntimeOptions{3});

  EXPECT_EQ(seq.groups_analyzed, par.groups_analyzed);
  EXPECT_EQ(seq.total_traffic, par.total_traffic);
  EXPECT_EQ(seq.degr_valid_traffic_rtt, par.degr_valid_traffic_rtt);
  EXPECT_EQ(seq.opp_valid_traffic_rtt, par.opp_valid_traffic_rtt);
  EXPECT_EQ(seq.rtt_within_3ms, par.rtt_within_3ms);
  EXPECT_EQ(seq.hd_within_0025, par.hd_within_0025);

  auto seq_degr = seq.degr_rtt;
  auto par_degr = par.degr_rtt;
  auto seq_opp = seq.opp_rtt;
  auto par_opp = par.opp_rtt;
  EXPECT_EQ(seq_degr.size(), par_degr.size());
  EXPECT_EQ(seq_opp.size(), par_opp.size());
  for (double q : {0.1, 0.5, 0.9}) {
    if (!seq_degr.empty()) {
      EXPECT_EQ(seq_degr.quantile(q), par_degr.quantile(q));
    }
    if (!seq_opp.empty()) {
      EXPECT_EQ(seq_opp.quantile(q), par_opp.quantile(q));
    }
  }

  ASSERT_EQ(seq.table1.size(), par.table1.size());
  auto it_seq = seq.table1.begin();
  auto it_par = par.table1.begin();
  for (; it_seq != seq.table1.end(); ++it_seq, ++it_par) {
    EXPECT_TRUE(it_seq->first == it_par->first);
    EXPECT_EQ(it_seq->second.group_traffic, it_par->second.group_traffic);
    EXPECT_EQ(it_seq->second.event_traffic, it_par->second.event_traffic);
  }
}

}  // namespace
}  // namespace fbedge
