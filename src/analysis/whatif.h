// What-if reporting: a deterministic metric block + verdict hash over one
// EdgeAnalysisResult, shared by tools/fbedge_whatif, bench/whatif_scenarios,
// and the scenario test suite so all three agree byte-for-byte on what a
// scenario's answer *is*.
//
// The verdict hash is FNV-1a over every decision-relevant output: headline
// fractions, CDF sizes and fixed quantile probes (bit-exact doubles),
// Table 1 / Table 2 contents, and the fault/scenario counters. Two runs
// with equal hashes answered the what-if identically; golden fixtures pin
// these hashes so calibration or routing changes that silently shift
// what-if answers fail a test instead of drifting.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analysis/edge_analysis.h"
#include "scenario/scenario.h"

namespace fbedge {

/// Flattened, deterministically ordered summary of one analysis run.
struct WhatifReport {
  /// Headline metrics in a fixed order (names are stable JSON keys).
  std::vector<std::pair<std::string, double>> metrics;
  std::uint64_t verdict_hash{0};
};

/// Builds the report; pure function of the result contents.
WhatifReport whatif_report(const EdgeAnalysisResult& result);

/// Prints "name = %.10g" per metric plus the verdict hash; byte-identical
/// for equal results at any thread count.
void print_whatif_report(const WhatifReport& report, std::FILE* out = stdout);

/// Prints "delta name = %+.10g" for every metric shared by both reports.
void print_whatif_deltas(const WhatifReport& baseline,
                         const WhatifReport& scenario,
                         std::FILE* out = stdout);

/// Prints one scenario's block to stdout: its "=== scenario NAME ===" header,
/// its report, and, unless the pack is empty, the pack's applied counters and
/// the deltas against the baseline. The applied counters are pure
/// functions of (pack, world), so the block is thread-count invariant.
void print_scenario_block(const WhatifReport& baseline,
                          const WhatifReport& report, const ScenarioPack& pack,
                          const FaultCounters& faults);

}  // namespace fbedge
