// Shared configuration for the figure/table reproduction binaries.
//
// Each bench binary regenerates one figure or table of the paper from a
// freshly synthesized dataset. Sizes are chosen so a single binary runs in
// tens of seconds; pass a positive integer argument to scale the number of
// user groups per continent.
//
// Common flags (after the optional group-count positional):
//   --threads N      worker threads for the sharded runtime (default and
//                    0: hardware concurrency; results are byte-identical
//                    for any N, including 1)
//   --json PATH      also emit headline metrics as machine-readable JSON
//                    (metric name -> value) for cross-PR tracking
//   --cache-dir DIR  persist/reuse the ingest artifact (per-group series)
//                    in DIR; warm runs skip session generation and are
//                    byte-identical to cold runs. The FBEDGE_CACHE_DIR
//                    environment variable sets a default; the flag wins.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/ingest_cache.h"
#include "runtime/pipeline.h"
#include "util/cli.h"
#include "workload/generator.h"
#include "workload/world.h"

namespace fbedge::bench {

/// Headline-metric sink for `--json`. Keys keep insertion order; write()
/// is a no-op when no path was given.
class JsonOutput {
 public:
  explicit JsonOutput(std::string path = {}) : path_(std::move(path)) {}

  void add(const std::string& name, double value) {
    entries_.emplace_back(name, value);
  }

  /// Writes `{"name": value, ...}`; returns false on I/O failure.
  bool write() const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot open %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %.10g%s\n", entries_[i].first.c_str(),
                   entries_[i].second, i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    return true;
  }

  bool enabled() const { return !path_.empty(); }

 private:
  std::vector<std::pair<std::string, double>> entries_;
  std::string path_;
};

struct RunConfig {
  WorldConfig world;
  DatasetConfig dataset;
  /// threads=0 -> hardware concurrency (resolve_threads).
  RuntimeOptions runtime;
  std::string json_path;
  /// Ingest-artifact cache directory (empty = caching off); see
  /// analysis/ingest_cache.h.
  IngestCacheOptions cache;
};

/// Parses the shared command line: an optional positional integer (user
/// groups per continent, >= 1) plus --threads (>= 0; 0 = hardware
/// concurrency), --json and --cache-dir. Exits 2 with usage on an unknown
/// flag or an invalid number.
inline void parse_common_args(int argc, char** argv, RunConfig& rc,
                              int default_groups) {
  rc.world.groups_per_continent = default_groups;
  if (const char* env = std::getenv("FBEDGE_CACHE_DIR")) rc.cache.dir = env;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [groups] [--threads N] [--json PATH] "
                 "[--cache-dir DIR]\n",
                 argv[0]);
    std::exit(2);
  };
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--threads") {
      rc.runtime.threads = cli::flag_value("--threads", next(), 0, kMaxInt, usage);
    } else if (arg == "--json") {
      if (const char* v = next()) rc.json_path = v;
    } else if (arg == "--cache-dir") {
      if (const char* v = next()) rc.cache.dir = v;
    } else if (!arg.empty() && arg[0] != '-') {
      rc.world.groups_per_continent = cli::flag_value("groups", argv[i], 1, kMaxInt, usage);
    } else {
      usage();
    }
  }
}

/// Traffic-characterization runs (Figs. 1-3): modest world, full sessions.
inline RunConfig traffic_run(int argc, char** argv) {
  RunConfig rc;
  rc.world.seed = 2019;
  rc.world.days = 2;
  rc.dataset.seed = 2019;
  rc.dataset.days = 2;
  rc.dataset.session_scale = 0.5;
  parse_common_args(argc, argv, rc, 4);
  return rc;
}

/// Global-performance runs (Figs. 6-7): wider world for continent CDFs.
inline RunConfig performance_run(int argc, char** argv) {
  RunConfig rc;
  rc.world.seed = 2019;
  rc.world.days = 2;
  rc.dataset.seed = 2019;
  rc.dataset.days = 2;
  rc.dataset.session_scale = 0.4;
  parse_common_args(argc, argv, rc, 12);
  return rc;
}

/// Edge analysis runs (Figs. 8-10, Tables 1-2): full 10-day span so the
/// temporal classifier has the paper's time base; fewer groups to
/// compensate.
inline RunConfig edge_run(int argc, char** argv) {
  RunConfig rc;
  rc.world.seed = 2019;
  rc.world.days = 10;
  rc.dataset.seed = 2019;
  rc.dataset.days = 10;
  rc.dataset.session_scale = 1.0;
  parse_common_args(argc, argv, rc, 10);
  return rc;
}

inline void print_paper_note(const char* note) {
  std::printf("paper: %s\n", note);
}

/// Standard runtime block every bench and tool appends to its `--json`
/// output: threads, the SIMD path, and every counter of the RunStats table
/// (runtime/run_stats.h), each once under its `runtime_` key.
inline void add_runtime_json(JsonOutput& json, const RunStats& stats) {
  json.add("runtime_threads", stats.threads);
  // 1 = AVX2 kernels, 0 = scalar reference, -1 = unknown. CI's scalar-rot
  // guard asserts this is 1 under FBEDGE_SIMD=avx2 on an AVX2 runner.
  json.add("runtime_simd_avx2", stats.simd_avx2);
  for_each_counter(stats, [&](const CounterRow& row, auto value) {
    json.add(row.key, static_cast<double>(value));
  });
}

}  // namespace fbedge::bench
