// fbedge_monitor — the fig9 opportunity workload run as a long-lived
// service instead of a batch job: every user group's generated sessions
// replay through the streaming pipeline (src/stream/) in event-time order,
// 15-minute windows close on a low-watermark, and each sealed window gets
// its §3.4 degradation/opportunity verdict immediately, after which the
// window's state is recycled — live memory stays flat no matter how many
// days the stream runs.
//
// Usage: fbedge_monitor [groups] [--threads N] [--json PATH]
//                       [--mode stream|batch] [--days N] [--lateness W]
//                       [--batch-rows N] [--dump-verdicts]
//                       [--late-rate P] [--late-max-delay W] [--dup-rate P]
//                       [--fault-seed S]
//
//   --mode batch runs the identical pipeline with an infinite lateness
//   band (materialize everything, seal at flush): its stdout and every
//   monitor_* JSON key are byte-identical to stream mode at any --threads
//   — that equivalence is the subsystem's acceptance gate (CI diffs the
//   two). --days scales the stream length at fixed group count; the
//   flat-RSS claim is judged by runtime_rss_peak across --days values.
//   The fault flags inject stream-transport faults (held-back / duplicated
//   micro-batches); late rows that miss their window are counted, dropped,
//   and reported, never crashed on.
//
//   Numeric flags are range-checked (util/cli.h): --threads >= 0 (0 =
//   hardware concurrency), --days/--batch-rows/--late-max-delay >= 1,
//   --lateness >= 0, --late-rate/--dup-rate in [0, 1]. A bad value prints
//   usage and exits 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "bench_common.h"
#include "fbedge/fbedge.h"
#include "util/cli.h"

using namespace fbedge;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [groups] [--threads N] [--json PATH] "
               "[--mode stream|batch] [--days N] [--lateness W] "
               "[--batch-rows N] [--dump-verdicts] [--late-rate P] "
               "[--late-max-delay W] [--dup-rate P] [--fault-seed S]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Same world/dataset shape as the fig9 bench (bench_common.h edge_run):
  // seed 2019, 10 days, 10 groups per continent by default.
  bench::RunConfig rc;
  rc.world.seed = 2019;
  rc.world.days = 10;
  rc.dataset.seed = 2019;
  rc.dataset.days = 10;
  rc.dataset.session_scale = 1.0;
  rc.world.groups_per_continent = 10;

  MonitorMode mode = MonitorMode::kStream;
  StreamMonitorOptions options;
  FaultPlan faults;
  bool dump_verdicts = false;
  const auto bad = [&] { usage(argv[0]); };
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--threads") {
      rc.runtime.threads = cli::flag_value("--threads", next(), 0, kMaxInt, bad);
    } else if (arg == "--json") {
      rc.json_path = next();
    } else if (arg == "--mode") {
      const std::string m = next();
      if (m == "stream") {
        mode = MonitorMode::kStream;
      } else if (m == "batch") {
        mode = MonitorMode::kBatch;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--days") {
      const int days = cli::flag_value("--days", next(), 1, kMaxInt, bad);
      rc.world.days = days;
      rc.dataset.days = days;
    } else if (arg == "--lateness") {
      options.allowed_lateness_windows = cli::flag_value("--lateness", next(), 0, kMaxInt, bad);
    } else if (arg == "--batch-rows") {
      options.max_batch_rows = cli::flag_value("--batch-rows", next(), 1, kMaxInt, bad);
    } else if (arg == "--dump-verdicts") {
      dump_verdicts = true;
    } else if (arg == "--late-rate") {
      faults.stream_late_rate = cli::flag_value("--late-rate", next(), 0.0, 1.0, bad);
    } else if (arg == "--late-max-delay") {
      faults.stream_late_max_delay = cli::flag_value("--late-max-delay", next(), 1, kMaxInt, bad);
    } else if (arg == "--dup-rate") {
      faults.stream_duplicate_rate = cli::flag_value("--dup-rate", next(), 0.0, 1.0, bad);
    } else if (arg == "--fault-seed") {
      faults.seed = static_cast<std::uint64_t>(cli::flag_value(
          "--fault-seed", next(), 0LL, std::numeric_limits<long long>::max(), bad));
    } else if (!arg.empty() && arg[0] != '-') {
      rc.world.groups_per_continent = cli::flag_value("groups", argv[i], 1, kMaxInt, bad);
    } else {
      usage(argv[0]);
    }
  }

  const World world = build_world(rc.world);
  RunStats stats;
  options.collect_verdicts = dump_verdicts;
  const MonitorResult result = run_stream_monitor(world, rc.dataset, mode, options,
                                                  rc.runtime, &stats, faults);

  // stdout is the equivalence surface: everything printed here is a pure
  // function of (world, dataset, monitor options, fault plan) — never of
  // --mode, --threads, or machine speed. Timings go to stderr.
  std::printf("fbedge_monitor: %zu groups, %d days, lateness=%d windows, "
              "batch_rows=%d\n",
              world.groups.size(), rc.dataset.days,
              options.allowed_lateness_windows, options.max_batch_rows);
  for (std::size_t g = 0; g < result.groups.size(); ++g) {
    const GroupVerdictSummary& s = result.groups[g];
    std::printf("group %4zu: windows=%4llu degraded_rtt=%3llu degraded_hd=%3llu "
                "opp_rtt=%3llu opp_hd=%3llu late_rows=%llu hash=%016llx\n",
                g, static_cast<unsigned long long>(s.windows),
                static_cast<unsigned long long>(s.degraded_rtt),
                static_cast<unsigned long long>(s.degraded_hd),
                static_cast<unsigned long long>(s.opp_rtt),
                static_cast<unsigned long long>(s.opp_hd),
                static_cast<unsigned long long>(s.late_rows),
                static_cast<unsigned long long>(s.verdict_hash));
    if (dump_verdicts) {
      for (const WindowVerdict& v : result.verdicts[g]) {
        std::printf("  w=%4d degr_rtt=%d degr_hd=%d opp=%d\n", v.window,
                    v.degr.rtt.exceeds(options.policy.degradation_rtt) ? 1 : 0,
                    v.degr.hd.exceeds(options.policy.degradation_hd) ? 1 : 0,
                    v.has_opp &&
                            (v.opp.rtt_opportunity(options.policy.opportunity_rtt) ||
                             v.opp.hd_opportunity(options.policy.opportunity_hd))
                        ? 1
                        : 0);
      }
    }
  }
  const GroupVerdictSummary& t = result.total;
  std::printf("total: sessions=%llu windows=%llu degraded_rtt=%llu "
              "degraded_hd=%llu opp_rtt=%llu opp_hd=%llu late_rows=%llu\n",
              static_cast<unsigned long long>(t.rows),
              static_cast<unsigned long long>(t.windows),
              static_cast<unsigned long long>(t.degraded_rtt),
              static_cast<unsigned long long>(t.degraded_hd),
              static_cast<unsigned long long>(t.opp_rtt),
              static_cast<unsigned long long>(t.opp_hd),
              static_cast<unsigned long long>(t.late_rows));
  std::printf("degraded_traffic_fraction=%.6f opportunity_traffic_fraction=%.6f\n",
              t.traffic > 0 ? t.degraded_traffic / t.traffic : 0.0,
              t.traffic > 0 ? t.opportunity_traffic / t.traffic : 0.0);
  std::printf("verdict_hash=%016llx\n",
              static_cast<unsigned long long>(t.verdict_hash));
  if (result.faults.any()) {
    std::printf("faults: late_batches=%llu dup_batches=%llu dropped_rows=%llu\n",
                static_cast<unsigned long long>(result.faults.stream_late_batches),
                static_cast<unsigned long long>(
                    result.faults.stream_duplicate_batches),
                static_cast<unsigned long long>(result.faults.stream_dropped_rows));
  }

  bench::JsonOutput json(rc.json_path);
  // monitor_* keys are mode- and thread-invariant (diffed verbatim by the
  // CI equivalence job); runtime_* keys describe this run's execution.
  json.add("monitor_groups", static_cast<double>(result.groups.size()));
  json.add("monitor_sessions", static_cast<double>(t.rows));
  json.add("monitor_windows_sealed", static_cast<double>(t.windows));
  json.add("monitor_degraded_rtt_windows", static_cast<double>(t.degraded_rtt));
  json.add("monitor_degraded_hd_windows", static_cast<double>(t.degraded_hd));
  json.add("monitor_opp_rtt_windows", static_cast<double>(t.opp_rtt));
  json.add("monitor_opp_hd_windows", static_cast<double>(t.opp_hd));
  json.add("monitor_late_rows", static_cast<double>(t.late_rows));
  json.add("monitor_degraded_traffic_fraction",
           t.traffic > 0 ? t.degraded_traffic / t.traffic : 0.0);
  json.add("monitor_opportunity_traffic_fraction",
           t.traffic > 0 ? t.opportunity_traffic / t.traffic : 0.0);
  // The 64-bit verdict hash split into exact 32-bit halves (%.10g doubles
  // cannot carry 64 significant bits).
  json.add("monitor_verdict_hash_hi",
           static_cast<double>(t.verdict_hash >> 32));
  json.add("monitor_verdict_hash_lo",
           static_cast<double>(t.verdict_hash & 0xffffffffu));
  json.add("runtime_sessions_per_second",
           stats.wall_seconds > 0 ? static_cast<double>(t.rows) / stats.wall_seconds
                                  : 0.0);
  bench::add_runtime_json(json, stats);
  if (!json.write()) return 1;

  stats.print("fbedge_monitor");
  return 0;
}
