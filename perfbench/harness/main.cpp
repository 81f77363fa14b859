// fbedge benchmark: four workloads over the paper's edge world, each timed
// end to end through the library's public entry points, with a separate
// traced run that splits the same work by layer (src/ module).
//
//   edge_cold       run_edge_analysis, no cache, 4 threads
//   edge_warm       run_edge_analysis from a warm ingest artifact (filled
//                   in set-up), 1 thread
//   monitor_stream  run_stream_monitor, stream mode, lateness 0, 256-row
//                   micro-batches, 4 threads, closed loop
//   whatif_sweep    run_scenario_sweep over the eight packs in
//                   perfbench/scenarios, warm baseline, 4 threads
//
// BENCHMARK.json gates monitor_stream and whatif_sweep; perfbench/layers.md
// says why the two edge workloads are not gated.
//
// Usage (normally through perfbench/run.py, which builds this binary):
//   fbedge_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--scenarios DIR] [--work-dir DIR] [--trace-out PATH]
//                    [--git-sha SHA] [--source-digest HEX]
//                    [--wrong-reference]
//
// --seed drives the session stream (DatasetConfig::seed); the topology is
// the paper's edge world at seed 2019, so every seed exercises the PoPs,
// routes and countries the scenario packs name. At seed 2019 every result
// digest is checked against a pinned value; at any other seed (the
// held-out seed 7411 included) a digest is checked against its own
// equivalents instead: warm = cold fill, traced = untraced, and every
// repeated pass = the first. --wrong-reference flips every expected digest
// so a run must report all of its operations as failed (the self-test).
//
// The last stdout line is the result object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics when
// --trace 1. End-to-end times are scaled to a reference host speed that a
// probe of the benchmark's own measures between operations (run_probe). The
// two lines before it carry the run's provenance and a detail record (every
// operation's and probe's seconds, the unscaled medians, the digests, the
// error rate).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/edge_analysis.h"
#include "analysis/edge_reduce.h"
#include "analysis/ingest_cache.h"
#include "analysis/sweep.h"
#include "analysis/whatif.h"
#include "layers.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "stream/monitor_pipeline.h"
#include "trace.h"
#include "util/binio.h"
#include "workload/world.h"

namespace {

using namespace fbedge;
using perfbench::Layer;
using perfbench::LayerCounters;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using perfbench::TraceSummary;

// ---- workload definition ---------------------------------------------------

constexpr std::uint64_t kWorldSeed = 2019;
constexpr std::uint64_t kPinnedSeed = 2019;
constexpr std::uint64_t kHeldOutSeed = 7411;
/// 2 groups per continent (12 groups) x 10 days: the paper's edge world at
/// a size where one cold pass takes ~2 s on a 4-core box, so a 45-second
/// run times several passes.
constexpr int kGroupsPerContinent = 2;
constexpr int kDays = 10;
constexpr int kPoolThreads = 4;
constexpr std::size_t kSetupMinReps = 3;
constexpr std::size_t kSetupBatch = 256;
constexpr double kSetupSliceSeconds = 0.05;
constexpr double kCheapSetupSeconds = 1e-3;
/// Host-speed probe (see run_probe): runs per gap between timed operations,
/// and the probe time that defines the reference speed every reported time
/// is scaled to.
constexpr int kProbesPerGap = 2;
constexpr double kProbeNominalSeconds = 0.100;

/// Result digests at seed 2019 (whatif verdict hash + sessions analyzed;
/// the monitor's total verdict hash).
constexpr std::uint64_t kPinnedEdgeDigest = 0x1c138d4b2f57bc3fULL;
constexpr std::uint64_t kPinnedMonitorHash = 0x6db2230db869c3f2ULL;
constexpr std::uint64_t kPinnedSweepDigests[] = {
    0x53236b4420533c26ULL, 0xe798caaeef3e99feULL, 0x6748ad98c68edb75ULL,
    0x1c138d4b2f57bc3fULL, 0xb8cd534f36717685ULL, 0x1c138d4b2f57bc3fULL,
    0xcc3d49df20171dccULL, 0x1c138d4b2f57bc3fULL};

struct Args {
  std::string workload;
  std::uint64_t seed{kPinnedSeed};
  double seconds{10};
  bool trace{false};
  std::string scenarios{"perfbench/scenarios"};
  std::string work_dir{".bench_build/perfbench/work"};
  std::string trace_out;
  std::string git_sha{"unknown"};
  std::string source_digest{"unknown"};
  bool wrong_reference{false};
};

[[noreturn]] void usage(const char* argv0, const char* why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload edge_cold|edge_warm|monitor_stream|"
               "whatif_sweep [--seed N] [--seconds S] [--trace 0|1] "
               "[--scenarios DIR] [--work-dir DIR] [--trace-out PATH] "
               "[--git-sha SHA] [--source-digest HEX] [--wrong-reference]\n",
               argv0, why, argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], "missing flag value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      const std::string v = next();
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') usage(argv[0], "bad --seed");
    } else if (arg == "--seconds") {
      const std::string v = next();
      char* end = nullptr;
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0 && a.seconds <= 600)) {
        usage(argv[0], "--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage(argv[0], "--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--scenarios") {
      a.scenarios = next();
    } else if (arg == "--work-dir") {
      a.work_dir = next();
    } else if (arg == "--trace-out") {
      a.trace_out = next();
    } else if (arg == "--git-sha") {
      a.git_sha = next();
    } else if (arg == "--source-digest") {
      a.source_digest = next();
    } else if (arg == "--wrong-reference") {
      a.wrong_reference = true;
    } else {
      usage(argv[0], "unknown flag");
    }
  }
  if (a.workload != "edge_cold" && a.workload != "edge_warm" &&
      a.workload != "monitor_stream" && a.workload != "whatif_sweep") {
    usage(argv[0], "unknown or missing --workload");
  }
  return a;
}

// ---- small helpers -----------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t edge_digest(const EdgeAnalysisResult& r) {
  Fnv64 h;
  h.u64(whatif_report(r).verdict_hash);
  h.u64(r.sessions_analyzed);
  return h.value();
}

/// Resets the kernel's peak-RSS mark so the timed phase's peak excludes
/// set-up; false where /proc/self/clear_refs is not writable.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Peak RSS in MiB: VmHWM (since the last reset) or the process maximum.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- host-speed probe ----------------------------------------------------------

constexpr std::size_t kProbeKeys = std::size_t{1} << 14;
constexpr int kProbeRounds = 128;
/// The probe's keys: static, so their 512 KiB are resident from the first
/// probe on, the same in every peak, and the probe never calls the
/// program's allocator.
std::uint64_t g_probe_keys[kPoolThreads][kProbeKeys];
std::atomic<std::uint64_t> g_probe_sink{0};

/// Seconds to sort kProbeRounds fixed pseudo-random arrays of kProbeKeys
/// keys on each of kPoolThreads threads at once. The shared host this
/// benchmark runs on moves in load phases that last minutes and slow every
/// timing by up to ~1.9x; the probe is code of the benchmark's own that no
/// program change touches, so its time measures the host's speed at that
/// moment. It runs between operations, while the program's threads idle.
double run_probe() {
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kPoolThreads; ++t) {
    threads.emplace_back([t] {
      std::uint64_t* keys = g_probe_keys[t];
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t);
      for (int round = 0; round < kProbeRounds; ++round) {
        for (std::size_t i = 0; i < kProbeKeys; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          keys[i] = x;
        }
        std::sort(keys, keys + kProbeKeys);
        g_probe_sink += keys[kProbeKeys / 2];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return seconds_since(t0);
}

// ---- operations --------------------------------------------------------------

/// One timed operation's outputs. Each digest covers one unit of `groups`
/// group analyses (the edge result; the sweep's baseline and each
/// scenario), so a mismatched digest fails that many operations.
struct OpResult {
  double seconds{0};
  std::vector<std::uint64_t> digests;
  std::uint64_t sessions{0};
  /// Groups lost, not served from the warm artifact, or dropping rows.
  std::uint64_t bad_groups{0};
  RunStats stats;
  // Traced operations only.
  double reduce_finish_s{0};
  std::uint64_t artifact_bytes{0};
  std::uint64_t groups_reduced{0};
  std::uint64_t affected_groups{0};
  std::uint64_t spliced_slots{0};
  std::uint64_t group_slots{0};
};

class Workload {
 public:
  explicit Workload(const Args& args) : args_(args) {
    world_config_.seed = kWorldSeed;
    world_config_.days = kDays;
    world_config_.groups_per_continent = kGroupsPerContinent;
    dataset_.seed = args.seed;
    dataset_.days = kDays;
    dataset_.session_scale = 1.0;
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Everything before the first timed operation; repeated by the caller,
  /// the last repetition's state is the one measured.
  virtual void setup() { world_ = build_world(world_config_); }
  virtual OpResult run() = 0;
  virtual OpResult run_traced(Tracer& tracer, LayerCounters& counters) = 0;
  /// Digests every operation must reproduce, one per unit; empty entries
  /// are learned from the first untraced operation.
  virtual std::vector<std::uint64_t> expected() const = 0;
  /// False when set-up itself produced a wrong result (fails every op).
  virtual bool setup_ok() const { return true; }
  virtual int threads() const { return kPoolThreads; }

  std::size_t groups() const { return world_.groups.size(); }
  bool pinned() const { return args_.seed == kPinnedSeed; }
  std::uint64_t flip(std::uint64_t d) const { return args_.wrong_reference ? d ^ 1 : d; }

 protected:
  RuntimeOptions runtime() const { return RuntimeOptions{threads()}; }

  /// Fresh cache directory for a warm-artifact fill.
  IngestCacheOptions fresh_cache() const {
    IngestCacheOptions cache;
    cache.dir = args_.work_dir + "/cache";
    std::filesystem::remove_all(cache.dir);
    std::filesystem::create_directories(cache.dir);
    return cache;
  }

  /// EdgeReducer over [0, n) whose blobs come from `blob_of(g)`, each
  /// re-driven through the traced agg probe first; the traced twin of the
  /// library's single reduce_range pass.
  template <typename BlobOf>
  EdgeAnalysisResult traced_reduce(Tracer& tracer, LayerCounters& counters,
                                   const World& world, BlobOf&& blob_of, OpResult& op) {
    const AnalysisThresholds thresholds;
    const ComparisonConfig comparison;
    const ClassifierConfig classifier = perfbench::classifier_config_for(dataset_);
    EdgeReducer reducer(world, dataset_, thresholds, comparison, GoodputConfig{});
    const EdgeReducer::BlobFn blob_fn = [&](std::size_t g) {
      ScopedSpan task(&tracer, Layer::kReduceTask, static_cast<std::uint32_t>(g));
      const GroupBlobRef ref = blob_of(g);
      perfbench::traced_probe(&tracer, ref, static_cast<std::uint32_t>(g), thresholds,
                              comparison, classifier, counters);
      return ref;
    };
    ScopedSpan span(&tracer, Layer::kAnalysisReduce);
    reducer.reduce_range(ShardRange{0, world.groups.size()}, blob_fn, runtime(),
                         &op.stats);
    op.groups_reduced += world.groups.size();
    const auto t0 = Clock::now();
    EdgeAnalysisResult result = reducer.finish();
    op.reduce_finish_s += seconds_since(t0);
    return result;
  }

  const Args& args_;
  WorldConfig world_config_;
  DatasetConfig dataset_;
  World world_;
};

class EdgeCold : public Workload {
 public:
  using Workload::Workload;

  OpResult run() override {
    OpResult op;
    const auto t0 = Clock::now();
    const EdgeAnalysisResult r =
        run_edge_analysis(world_, dataset_, {}, {}, {}, runtime(), &op.stats);
    op.seconds = seconds_since(t0);
    op.digests = {edge_digest(r)};
    op.sessions = r.sessions_analyzed;
    op.bad_groups = r.faults.lost_groups;
    return op;
  }

  OpResult run_traced(Tracer& tracer, LayerCounters& counters) override {
    OpResult op;
    const auto t0 = Clock::now();
    const DatasetGenerator generator(world_, dataset_);
    std::vector<std::string> blobs(groups());
    const EdgeAnalysisResult r = traced_reduce(
        tracer, counters, world_,
        [&](std::size_t g) {
          blobs[g] = perfbench::traced_ingest(&tracer, generator, world_.groups[g],
                                              static_cast<std::uint32_t>(g),
                                              GoodputConfig{}, counters);
          return GroupBlobRef{blobs[g].data(), blobs[g].size()};
        },
        op);
    op.seconds = seconds_since(t0);
    op.digests = {edge_digest(r)};
    op.sessions = r.sessions_analyzed;
    op.bad_groups = r.faults.lost_groups;
    return op;
  }

  std::vector<std::uint64_t> expected() const override {
    return {pinned() ? flip(kPinnedEdgeDigest) : 0};
  }
};

/// Shared by the two warm workloads: fills the ingest artifact in set-up
/// with a cold, cache-writing run_edge_analysis.
class WarmBase : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    Workload::setup();
    cache_ = fresh_cache();
    RunStats stats;
    const EdgeAnalysisResult fill = run_edge_analysis(
        world_, dataset_, {}, {}, {}, RuntimeOptions{kPoolThreads}, &stats, {}, cache_);
    fill_digest_ = edge_digest(fill);
  }

  bool setup_ok() const override {
    return !pinned() || fill_digest_ == flip(kPinnedEdgeDigest);
  }

 protected:
  /// Reads the artifact the library would read, under a traced span.
  bool traced_artifact(Tracer& tracer, IngestArtifact& artifact, OpResult& op) {
    const std::uint64_t key = ingest_cache_key(world_, dataset_, GoodputConfig{});
    ScopedSpan span(&tracer, Layer::kAnalysisArtifactRead);
    const bool ok = read_ingest_artifact(ingest_artifact_path(cache_.dir, key), key,
                                         groups(), artifact);
    op.artifact_bytes += artifact.bytes.size();
    return ok;
  }

  static GroupBlobRef blob_at(const IngestArtifact& artifact, std::size_t g) {
    const auto [offset, length] = artifact.blobs[g];
    return GroupBlobRef{artifact.bytes.data() + offset, length};
  }

  IngestCacheOptions cache_;
  std::uint64_t fill_digest_{0};
};

class EdgeWarm : public WarmBase {
 public:
  using WarmBase::WarmBase;

  int threads() const override { return 1; }

  OpResult run() override {
    OpResult op;
    const auto t0 = Clock::now();
    const EdgeAnalysisResult r =
        run_edge_analysis(world_, dataset_, {}, {}, {}, runtime(), &op.stats, {}, cache_);
    op.seconds = seconds_since(t0);
    op.digests = {edge_digest(r)};
    op.sessions = r.sessions_analyzed;
    op.bad_groups = r.faults.lost_groups + op.stats.cache_misses;
    return op;
  }

  OpResult run_traced(Tracer& tracer, LayerCounters& counters) override {
    OpResult op;
    const auto t0 = Clock::now();
    IngestArtifact artifact;
    const bool warm = traced_artifact(tracer, artifact, op);
    const EdgeAnalysisResult r = traced_reduce(
        tracer, counters, world_,
        [&](std::size_t g) { return warm ? blob_at(artifact, g) : GroupBlobRef{}; }, op);
    op.seconds = seconds_since(t0);
    op.digests = {edge_digest(r)};
    op.sessions = r.sessions_analyzed;
    op.bad_groups = r.faults.lost_groups + (warm ? 0 : groups());
    return op;
  }

  std::vector<std::uint64_t> expected() const override { return {flip(fill_digest_)}; }
};

class MonitorStream : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    Workload::setup();
    options_ = StreamMonitorOptions{};
    options_.allowed_lateness_windows = 0;
    options_.max_batch_rows = 256;
  }

  OpResult run() override {
    OpResult op;
    const auto t0 = Clock::now();
    const MonitorResult r = run_stream_monitor(world_, dataset_, MonitorMode::kStream,
                                               options_, runtime(), &op.stats);
    op.seconds = seconds_since(t0);
    op.digests = {r.total.verdict_hash};
    op.sessions = r.total.rows;
    for (const GroupVerdictSummary& g : r.groups) op.bad_groups += g.late_rows > 0;
    return op;
  }

  OpResult run_traced(Tracer& tracer, LayerCounters& counters) override {
    OpResult op;
    const auto t0 = Clock::now();
    const std::uint64_t hash = perfbench::traced_stream_monitor(
        &tracer, world_, dataset_, options_, runtime(), &op.stats, counters, &op.sessions);
    op.seconds = seconds_since(t0);
    op.digests = {hash};
    return op;
  }

  std::vector<std::uint64_t> expected() const override {
    return {pinned() ? flip(kPinnedMonitorHash) : 0};
  }

 private:
  StreamMonitorOptions options_;
};

class WhatifSweep : public WarmBase {
 public:
  using WarmBase::WarmBase;

  void setup() override {
    WarmBase::setup();
    packs_.clear();
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(args_.scenarios)) {
      if (entry.path().extension() == ".conf") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      std::ifstream in(path);
      std::stringstream text;
      text << in.rdbuf();
      ScenarioParseResult parsed = parse_scenario(text.str());
      if (!parsed.ok) {
        std::fprintf(stderr, "perfbench: %s: %s\n", path.c_str(), parsed.error.c_str());
        std::exit(1);
      }
      validate_scenario(world_, parsed.pack);
      packs_.push_back(std::move(parsed.pack));
    }
    if (packs_.size() != std::size(kPinnedSweepDigests)) {
      std::fprintf(stderr, "perfbench: expected %zu scenario packs in %s, found %zu\n",
                   std::size(kPinnedSweepDigests), args_.scenarios.c_str(), packs_.size());
      std::exit(1);
    }
  }

  OpResult run() override {
    OpResult op;
    const auto t0 = Clock::now();
    const SweepOutcome out = run_scenario_sweep(world_, dataset_, {}, {}, {}, packs_,
                                                runtime(), &op.stats, {}, cache_);
    op.seconds = seconds_since(t0);
    op.digests.push_back(edge_digest(out.baseline));
    op.sessions = out.baseline.sessions_analyzed;
    op.bad_groups = out.baseline.faults.lost_groups + op.stats.cache_misses;
    for (const SweepScenarioResult& s : out.scenarios) {
      op.digests.push_back(edge_digest(s.result));
      op.sessions += s.result.sessions_analyzed;
      op.bad_groups += s.result.faults.lost_groups;
    }
    return op;
  }

  /// run_scenario_sweep's warm path, step by step: baseline reduce over
  /// the artifact, then per pack apply + footprint + a reduce that splices
  /// baseline blobs outside the footprint and ingests the groups inside.
  OpResult run_traced(Tracer& tracer, LayerCounters& counters) override {
    OpResult op;
    const auto t0 = Clock::now();
    IngestArtifact artifact;
    const bool warm = traced_artifact(tracer, artifact, op);
    const auto baseline_blob = [&](std::size_t g) {
      return warm ? blob_at(artifact, g) : GroupBlobRef{};
    };
    const EdgeAnalysisResult baseline =
        traced_reduce(tracer, counters, world_, baseline_blob, op);
    op.digests.push_back(edge_digest(baseline));
    op.sessions = baseline.sessions_analyzed;
    op.bad_groups = baseline.faults.lost_groups + (warm ? 0 : groups());
    const std::size_t n = groups();
    std::vector<std::string> blobs(n);
    for (const ScenarioPack& pack : packs_) {
      FaultCounters applied;
      World perturbed;
      {
        ScopedSpan span(&tracer, Layer::kScenarioApply);
        perturbed = apply_scenario(world_, pack, &applied);
      }
      std::vector<std::size_t> affected;
      {
        ScopedSpan span(&tracer, Layer::kScenarioFootprint);
        affected = affected_groups(world_, pack);
      }
      std::vector<std::uint8_t> inside(n, 0);
      for (const std::size_t g : affected) inside[g] = 1;
      const DatasetGenerator generator(perturbed, dataset_);
      EdgeAnalysisResult r = traced_reduce(
          tracer, counters, perturbed,
          [&](std::size_t g) {
            if (!inside[g]) return baseline_blob(g);
            blobs[g] = perfbench::traced_ingest(&tracer, generator, perturbed.groups[g],
                                                static_cast<std::uint32_t>(g),
                                                GoodputConfig{}, counters);
            return GroupBlobRef{blobs[g].data(), blobs[g].size()};
          },
          op);
      r.faults.accumulate(applied);
      op.digests.push_back(edge_digest(r));
      op.sessions += r.sessions_analyzed;
      op.bad_groups += r.faults.lost_groups;
      op.affected_groups += affected.size();
      op.spliced_slots += n - affected.size();
      op.group_slots += n;
    }
    op.seconds = seconds_since(t0);
    return op;
  }

  std::vector<std::uint64_t> expected() const override {
    std::vector<std::uint64_t> e{flip(fill_digest_)};
    for (const std::uint64_t d : kPinnedSweepDigests) e.push_back(pinned() ? flip(d) : 0);
    return e;
  }

 private:
  std::vector<ScenarioPack> packs_;
};

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "edge_cold") return std::make_unique<EdgeCold>(args);
  if (args.workload == "edge_warm") return std::make_unique<EdgeWarm>(args);
  if (args.workload == "monitor_stream") return std::make_unique<MonitorStream>(args);
  return std::make_unique<WhatifSweep>(args);
}

// ---- checking ----------------------------------------------------------------

/// Counts attempted and failed group analyses against the expected digests.
class Checker {
 public:
  Checker(std::vector<std::uint64_t> expected, std::size_t groups, bool setup_ok)
      : expected_(std::move(expected)), groups_(groups), setup_ok_(setup_ok) {}

  void check(const OpResult& op) {
    const std::uint64_t ops = groups_ * op.digests.size();
    attempted_ += ops;
    if (!setup_ok_ || op.digests.size() != expected_.size()) {
      failed_ += ops;
      return;
    }
    std::uint64_t failed = op.bad_groups;
    for (std::size_t u = 0; u < op.digests.size(); ++u) {
      // An expected value of 0 is learned from the first operation.
      if (expected_[u] == 0) expected_[u] = op.digests[u];
      if (op.digests[u] != expected_[u]) failed += groups_;
    }
    failed_ += std::min(failed, ops);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<std::uint64_t> expected_;
  std::uint64_t groups_;
  bool setup_ok_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Checker& checker, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checker.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checker.attempted());
  out += ", \"failed\": " + std::to_string(checker.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_provenance(const Args& args, const Workload& wl, const RunStats& stats,
                      std::size_t setup_reps, std::size_t ops) {
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"held_out_seed\": %llu, "
      "\"world_seed\": %llu, \"groups\": %zu, \"days\": %d, \"threads\": %d, "
      "\"nproc\": %u, \"cpu_model\": \"%s\", \"simd\": \"%s\", \"git_sha\": \"%s\", "
      "\"source_digest\": \"%s\", \"trace\": %d, \"setup_reps\": %zu, "
      "\"timed_ops\": %zu}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(kHeldOutSeed),
      static_cast<unsigned long long>(kWorldSeed), wl.groups(), kDays, wl.threads(),
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      stats.simd_avx2 == 1 ? "avx2" : stats.simd_avx2 == 0 ? "scalar" : "unknown",
      json_escape(args.git_sha).c_str(), json_escape(args.source_digest).c_str(),
      args.trace ? 1 : 0, setup_reps, ops);
}

/// Human-readable run record: every timed operation, the raw (unscaled)
/// medians, every probe time and the last digests.
void print_detail(const Checker& checker, const OpResult& last,
                  const std::vector<double>& times, const std::vector<double>& traced,
                  const std::vector<double>& probes, double raw_setup_s) {
  const auto list = [](const std::vector<double>& v) {
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.6f", i ? ", " : "", v[i]);
      out += buf;
    }
    return out;
  };
  std::string digests;
  for (std::size_t i = 0; i < last.digests.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s\"%016llx\"", i ? ", " : "",
                  static_cast<unsigned long long>(last.digests[i]));
    digests += buf;
  }
  std::printf("detail {\"error_rate\": %.6g, \"raw_setup_s\": %.9g, "
              "\"raw_result_s\": %.9g, \"probe_s\": %.9g, \"op_seconds\": [%s], "
              "\"traced_op_seconds\": [%s], \"probe_seconds\": [%s], "
              "\"digests\": [%s]}\n",
              ratio(static_cast<double>(checker.failed()),
                    static_cast<double>(checker.attempted())),
              raw_setup_s, median(times), median(probes), list(times).c_str(),
              list(traced).c_str(), list(probes).c_str(), digests.c_str());
}

std::vector<Metric> layer_metrics(const TraceSummary& s, const LayerCounters& c,
                                  const OpResult& traced, const RunStats& untraced,
                                  double traced_median, double untraced_median) {
  const auto self = [&](Layer l) { return s.self_s[static_cast<std::size_t>(l)]; };
  const auto n = [](const std::atomic<std::uint64_t>& v) {
    return static_cast<double>(v.load());
  };
  double shard_sum = 0;
  double shard_max = 0;
  for (const ShardStats& sh : untraced.shards) {
    shard_sum += sh.busy_seconds;
    shard_max = std::max(shard_max, sh.busy_seconds);
  }
  const double shard_mean =
      untraced.shards.empty() ? 0 : shard_sum / static_cast<double>(untraced.shards.size());
  const double thread_s = untraced.threads * untraced.wall_seconds;
  // Pool-task time the benchmark did not drive itself is the reducer's own
  // load + analysis + fold; finish() runs on the calling thread.
  const double reduce_busy = traced.groups_reduced > 0
                                 ? traced.stats.cpu_seconds - s.reduce_task_s +
                                       traced.reduce_finish_s
                                 : 0.0;
  return {
      {"workload.sessions", n(c.sessions), "count"},
      {"workload.busy_s", self(Layer::kWorkload), "s"},
      {"sampler.rows_in", n(c.sessions), "count"},
      {"sampler.rows_kept", n(c.rows_kept), "count"},
      {"sampler.kept_frac", ratio(n(c.rows_kept), n(c.sessions)), "ratio"},
      {"sampler.txns_in", n(c.txns_in), "count"},
      {"sampler.txns_out", n(c.txns_out), "count"},
      {"sampler.busy_s", self(Layer::kSampler), "s"},
      {"goodput.sessions", n(c.rows_kept), "count"},
      {"goodput.testable", n(c.hd_testable), "count"},
      {"goodput.testable_frac", ratio(n(c.hd_testable), n(c.rows_kept)), "ratio"},
      {"goodput.busy_s", self(Layer::kGoodput), "s"},
      {"agg.rows_added", n(c.rows_kept), "count"},
      {"agg.cells", n(c.cells), "count"},
      {"agg.ingest_busy_s", self(Layer::kAggIngest), "s"},
      {"agg.series_save_busy_s", self(Layer::kAggSeriesSave), "s"},
      {"agg.series_bytes", n(c.series_bytes), "bytes"},
      {"agg.series_load_busy_s", self(Layer::kAggSeriesLoad), "s"},
      {"agg.degradation_busy_s", self(Layer::kAggDegradation), "s"},
      {"agg.opportunity_busy_s", self(Layer::kAggOpportunity), "s"},
      {"agg.classify_busy_s", self(Layer::kAggClassify), "s"},
      {"agg.windows", n(c.windows), "count"},
      {"agg.valid_windows", n(c.valid_windows), "count"},
      {"agg.valid_window_frac", ratio(n(c.valid_windows), n(c.windows)), "ratio"},
      {"analysis.artifact_read_s", self(Layer::kAnalysisArtifactRead), "s"},
      {"analysis.artifact_bytes", static_cast<double>(traced.artifact_bytes), "bytes"},
      {"analysis.cache_hits", static_cast<double>(untraced.cache_hits), "count"},
      {"analysis.cache_misses", static_cast<double>(untraced.cache_misses), "count"},
      {"analysis.reduce_busy_s", reduce_busy, "s"},
      {"analysis.groups_reduced", static_cast<double>(traced.groups_reduced), "count"},
      {"stream.deliveries", n(c.deliveries), "count"},
      {"stream.rows", n(c.stream_rows), "count"},
      {"stream.replay_busy_s", self(Layer::kStreamReplay), "s"},
      {"stream.machine_busy_s", self(Layer::kStreamMachine), "s"},
      {"stream.verdict_busy_s", self(Layer::kStreamVerdict), "s"},
      {"stream.windows_sealed", n(c.sealed), "count"},
      {"stream.open_windows_peak", n(c.open_windows_peak), "count"},
      {"stream.late_rows", n(c.late_rows), "count"},
      {"scenario.apply_busy_s", self(Layer::kScenarioApply), "s"},
      {"scenario.footprint_busy_s", self(Layer::kScenarioFootprint), "s"},
      {"scenario.affected_groups", static_cast<double>(traced.affected_groups), "count"},
      {"scenario.spliced_slots", static_cast<double>(traced.spliced_slots), "count"},
      {"scenario.group_slots", static_cast<double>(traced.group_slots), "count"},
      {"scenario.reuse_frac",
       ratio(static_cast<double>(traced.spliced_slots),
             static_cast<double>(traced.group_slots)),
       "ratio"},
      {"runtime.threads", static_cast<double>(untraced.threads), "count"},
      {"runtime.wall_s", untraced.wall_seconds, "s"},
      {"runtime.thread_s", thread_s, "s"},
      {"runtime.cpu_s", untraced.cpu_seconds, "s"},
      {"runtime.util", ratio(untraced.cpu_seconds, thread_s), "ratio"},
      {"runtime.idle_s", thread_s - shard_sum, "s"},
      {"runtime.shard_busy_max_s", shard_max, "s"},
      {"runtime.shard_busy_mean_s", shard_mean, "s"},
      {"runtime.shard_busy_max_over_mean", ratio(shard_max, shard_mean), "ratio"},
      {"runtime.steals", static_cast<double>(untraced.steals), "count"},
      {"runtime.alloc_count", static_cast<double>(untraced.alloc_count), "count"},
      {"trace.untraced_result_s", untraced_median, "s"},
      {"trace.traced_result_s", traced_median, "s"},
      {"trace.overhead_s", traced_median - untraced_median, "s"},
      {"trace.unattributed_s", traced.seconds - s.covered_s, "s"},
      {"trace.spans", static_cast<double>(s.span_count), "count"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::filesystem::create_directories(args.work_dir);
  std::unique_ptr<Workload> wl = make_workload(args);

  // Set-up, repeated; its median is setup_s. Warm set-ups refill the
  // artifact from scratch each time. A set-up of microseconds (building
  // the world alone) is timed in batches of kSetupBatch, each sample being
  // the batch's mean, and is repeated for a short slice after every timed
  // operation too, so its median spans the whole run rather than one
  // moment of the machine.
  std::vector<double> setup_times;
  std::size_t setup_reps = 0;
  std::size_t batch = 1;
  const auto set_up_for = [&](double seconds, std::size_t min_samples) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < min_samples || seconds_since(start) < seconds; ++i) {
      const auto t0 = Clock::now();
      for (std::size_t b = 0; b < batch; ++b) wl->setup();
      setup_times.push_back(seconds_since(t0) / static_cast<double>(batch));
      setup_reps += batch;
    }
  };
  set_up_for(0, 1);  // the first set-up tells how cheap it is
  const bool cheap_setup = setup_times.front() < kCheapSetupSeconds;
  if (cheap_setup) {
    batch = kSetupBatch;
    setup_times.clear();
    set_up_for(kSetupSliceSeconds, 1);
  } else {
    set_up_for(0, kSetupMinReps - 1);
  }
  Checker checker(wl->expected(), wl->groups(), wl->setup_ok());

  std::vector<double> times;
  std::vector<double> peaks_mb;
  std::vector<double> probes;
  const auto probe_gap = [&] {
    for (int i = 0; i < kProbesPerGap; ++i) probes.push_back(run_probe());
  };
  std::vector<double> traced_times;
  std::uint64_t sessions = 0;
  OpResult last;
  OpResult last_traced;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<LayerCounters> counters;
  probe_gap();
  // Hand set-up's freed heap back first, so the peaks measure what the
  // timed phase holds rather than what the allocator kept. Each operation's
  // peak is taken on its own and peak_rss_mb is their median: the maximum
  // over a run would follow the one operation whose threads happened to
  // interleave their allocations worst.
  malloc_trim(0);
  bool rss_reset = true;
  const auto start = Clock::now();
  do {
    rss_reset = reset_peak_rss() && rss_reset;
    last = wl->run();
    peaks_mb.push_back(peak_rss_mb());
    checker.check(last);
    times.push_back(last.seconds);
    sessions = last.sessions;
    if (args.trace) {
      tracer = std::make_unique<Tracer>();
      counters = std::make_unique<LayerCounters>();
      last_traced = wl->run_traced(*tracer, *counters);
      checker.check(last_traced);
      traced_times.push_back(last_traced.seconds);
    }
    if (cheap_setup) set_up_for(kSetupSliceSeconds, 1);
    probe_gap();
  } while (seconds_since(start) < args.seconds);
  if (!rss_reset) {
    std::fprintf(stderr, "perfbench: peak RSS includes set-up (clear_refs unavailable)\n");
  }

  print_provenance(args, *wl, last.stats, setup_reps, times.size());
  print_detail(checker, last, times, traced_times, probes, median(setup_times));
  const double result_s = median(times);
  if (!args.trace) {
    // Times at the reference speed: each median is scaled by the probe's
    // nominal time over its median time in this run.
    const double scale = kProbeNominalSeconds / median(probes);
    const double scaled_result_s = result_s * scale;
    print_result(checker,
                 {{"setup_s", median(setup_times) * scale, "s"},
                  {"result_s", scaled_result_s, "s"},
                  {"sessions_per_s", static_cast<double>(sessions) / scaled_result_s, "1/s"},
                  {"peak_rss_mb", median(peaks_mb), "MiB"}});
  } else {
    const TraceSummary summary = tracer->summarize();
    if (!args.trace_out.empty() && !tracer->write_csv(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
    print_result(checker, layer_metrics(summary, *counters, last_traced, last.stats,
                                        median(traced_times), result_s));
  }
  std::filesystem::remove_all(args.work_dir);
  return 0;
}
