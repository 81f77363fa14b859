// fbedge_gen — generate a synthetic sampled-session dataset to stdout (or
// a file), one serialized SessionSample per line. Pairs with
// fbedge_analyze, which re-ingests the file and runs the measurement
// pipeline — the same produce/ship/analyze split as the paper's
// production deployment (§2.2.2).
//
// Usage: fbedge_gen [--groups N] [--days D] [--scale S] [--seed X]
//                   [--threads T] [--out FILE]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "fbedge/fbedge.h"
#include "util/cli.h"

using namespace fbedge;

namespace {

struct Options {
  int groups_per_continent = 2;
  int days = 1;
  double scale = 0.2;
  std::uint64_t seed = 2019;
  int threads = 0;  // 0 = hardware concurrency
  std::string out;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: fbedge_gen [--groups N] [--days D] [--scale S] "
               "[--seed X] [--threads T] [--out FILE]\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opts;
  const auto bad = [] { usage(); };
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--groups") {
      opts.groups_per_continent = cli::flag_value("--groups", next(), 1, kMaxInt, bad);
    } else if (arg == "--days") {
      opts.days = cli::flag_value("--days", next(), 1, kMaxInt, bad);
    } else if (arg == "--scale") {
      opts.scale = cli::flag_value("--scale", next(), 0.0,
                                   std::numeric_limits<double>::max(), bad);
    } else if (arg == "--seed") {
      opts.seed = static_cast<std::uint64_t>(cli::flag_value(
          "--seed", next(), 0LL, std::numeric_limits<long long>::max(), bad));
    } else if (arg == "--threads") {
      opts.threads = cli::flag_value("--threads", next(), 0, kMaxInt, bad);
    } else if (arg == "--out") {
      opts.out = next();
    } else {
      usage();
    }
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);

  WorldConfig wc;
  wc.seed = opts.seed;
  wc.groups_per_continent = opts.groups_per_continent;
  wc.days = opts.days;
  const World world = build_world(wc);

  DatasetConfig dc;
  dc.seed = opts.seed;
  dc.days = opts.days;
  dc.session_scale = opts.scale;
  DatasetGenerator generator(world, dc);

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!opts.out.empty()) {
    file.open(opts.out);
    if (!file) {
      std::fprintf(stderr, "fbedge_gen: cannot open %s\n", opts.out.c_str());
      return 1;
    }
    out = &file;
  }

  // Serialize each group's sessions into a private buffer on the runtime,
  // then write the buffers in group order — output is byte-identical to a
  // sequential run for any thread count.
  RuntimeOptions runtime;
  runtime.threads = opts.threads;
  RunStats stats;
  const std::vector<std::string> buffers = parallel_map(
      world.groups.size(), runtime,
      [&](std::size_t g) {
        std::string buf;
        generator.generate_group(world.groups[g], [&](const SessionSample& s) {
          buf += serialize_sample(s);
          buf += '\n';
        });
        return buf;
      },
      &stats);

  std::uint64_t sessions = 0;
  for (const std::string& buf : buffers) {
    (*out) << buf;
    for (const char ch : buf) sessions += ch == '\n';
  }
  std::fprintf(stderr, "fbedge_gen: wrote %llu sessions from %zu user groups\n",
               static_cast<unsigned long long>(sessions), world.groups.size());
  stats.print("fbedge_gen");
  return 0;
}
