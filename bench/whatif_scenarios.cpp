// Scenario-pack what-if suite: a fixed set of operational questions (PoP
// drain at peak, transit depref, flash crowd, submarine-cable cut) run
// against the same world as the §5/§6 benches, reporting each scenario's
// opportunity/degradation deltas vs baseline plus a verdict hash. The
// scenario configs are embedded as config-format text so this bench also
// exercises the parser end-to-end.
//
// --sweep switches to the incremental sweep engine (analysis/sweep.h) over
// an extended 8-scenario pack set: one baseline ingest, each scenario
// re-ingesting only its affected groups. The bench then re-runs every
// scenario as an independent full analysis, fails if any verdict hash
// differs from its sweep twin, and reports both walls plus the reuse
// counters (sweep_groups_reused / sweep_groups_recomputed) in the JSON.
// Timings go to stderr/JSON only; stdout stays byte-identical for any
// --threads in both modes.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/sweep.h"
#include "analysis/whatif.h"
#include "bench_common.h"
#include "fbedge/fbedge.h"
#include "scenario/scenario.h"

using namespace fbedge;

namespace {

// Windows are 15 minutes; day d's 19:00-23:00 peak is windows
// d*96+76 .. d*96+92. The world default is 10 days (960 windows).
constexpr const char* kScenarios[] = {
    R"(# Drain the primary European PoP through day 1's peak hours.
[scenario]
name = drain-eu-peak
seed = 42

[drain]
pop = EU-pop1
start_window = 172
end_window = 188
reroute_rtt_min_ms = 20
reroute_rtt_max_ms = 45
reroute_loss = 0.002
)",
    R"(# Deprefer the largest tier-1 transit everywhere: every group whose
# preferred route rides AS3356 falls back to its next-best route.
[scenario]
name = depref-transit-3356
seed = 42

[depref]
asn = 3356
continent = all
)",
    R"(# Flash-crowd a South American country 8x for a day, with the shared
# destination bottleneck congesting while the crowd lasts.
[scenario]
name = flash-crowd-sa
seed = 42

[flash_crowd]
country = 500
multiplier = 8
jitter = 0.15
start_window = 480
end_window = 576
congestion_delay_ms = 12
congestion_loss = 0.01
)",
    R"(# Submarine-cable cut on the EU-AF corridor for the whole study:
# Africa's Europe-served overflow traffic detours ~80 ms the long way.
[scenario]
name = cable-cut-eu-af
seed = 42

[cable_cut]
continents = EU-AF
extra_rtt_ms = 80
extra_loss = 0.003
start_window = 0
end_window = 960
)",
};

// Four additional narrow-footprint questions for the --sweep suite. Each
// perturbs a small slice of the world (one PoP, one continent's transit,
// one country, one corridor), which is where the incremental engine's
// reuse pays: the sweep re-ingests only these footprints.
constexpr const char* kSweepExtraScenarios[] = {
    R"(# Drain the secondary Asian PoP through day 2's peak hours.
[scenario]
name = drain-as-peak
seed = 42

[drain]
pop = AS-pop2
start_window = 268
end_window = 284
reroute_rtt_min_ms = 25
reroute_rtt_max_ms = 50
reroute_loss = 0.002
)",
    R"(# Deprefer AS1299 transit for European groups only.
[scenario]
name = depref-transit-1299-eu
seed = 42

[depref]
asn = 1299
continent = EU
)",
    R"(# Flash-crowd an African country 5x through day 3.
[scenario]
name = flash-crowd-af
seed = 42

[flash_crowd]
country = 1
multiplier = 5
jitter = 0.1
start_window = 288
end_window = 384
congestion_delay_ms = 8
congestion_loss = 0.006
)",
    R"(# Cable fault on the NA-SA corridor for two days.
[scenario]
name = cable-cut-na-sa
seed = 42

[cable_cut]
continents = NA-SA
extra_rtt_ms = 60
extra_loss = 0.002
start_window = 96
end_window = 288
)",
};

ScenarioPack parse_embedded(const char* text) {
  ScenarioParseResult parsed = parse_scenario(text);
  if (!parsed.ok) {
    std::fprintf(stderr, "whatif_scenarios: bad embedded scenario: %s\n",
                 parsed.error.c_str());
    std::exit(1);
  }
  return std::move(parsed.pack);
}

void add_delta_json(bench::JsonOutput& json, const WhatifReport& baseline,
                    const WhatifReport& report, const std::string& name) {
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    json.add(name + "_d_" + report.metrics[i].first,
             report.metrics[i].second - baseline.metrics[i].second);
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --sweep before the shared parser (which rejects unknown flags).
  bool sweep = false;
  std::vector<char*> filtered;
  filtered.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--sweep") == 0) {
      sweep = true;
    } else {
      filtered.push_back(argv[i]);
    }
  }
  bench::RunConfig rc =
      bench::edge_run(static_cast<int>(filtered.size()), filtered.data());
  bench::print_paper_note(
      "what-if scenario packs over the §3.4/§6 analyses (decision-tool use)");

  std::vector<ScenarioPack> packs;
  for (const char* text : kScenarios) packs.push_back(parse_embedded(text));
  if (sweep) {
    for (const char* text : kSweepExtraScenarios) {
      packs.push_back(parse_embedded(text));
    }
  }

  const World world = build_world(rc.world);
  RunStats stats;
  bench::JsonOutput json(rc.json_path);

  if (sweep) {
    const auto sweep_start = std::chrono::steady_clock::now();
    const SweepOutcome outcome = run_scenario_sweep(
        world, rc.dataset, {}, {}, {}, packs, rc.runtime, &stats, {}, rc.cache);
    const double sweep_wall = seconds_since(sweep_start);

    const WhatifReport baseline = whatif_report(outcome.baseline);
    std::printf("=== baseline ===\n");
    print_whatif_report(baseline);
    for (const auto& [name, value] : baseline.metrics) {
      json.add("baseline_" + name, value);
    }

    std::uint64_t total_reused = 0;
    std::uint64_t total_recomputed = 0;
    for (const SweepScenarioResult& scen : outcome.scenarios) {
      const WhatifReport report = whatif_report(scen.result);
      print_scenario_block(baseline, report, scen.pack, scen.result.faults);
      const std::uint64_t reused = scen.result.faults.scenario_groups_reused;
      const std::uint64_t recomputed =
          scen.result.faults.scenario_groups_recomputed;
      std::printf("sweep: reused=%llu recomputed=%llu\n",
                  static_cast<unsigned long long>(reused),
                  static_cast<unsigned long long>(recomputed));
      total_reused += reused;
      total_recomputed += recomputed;
      add_delta_json(json, baseline, report, scen.pack.name);
      json.add(scen.pack.name + "_sweep_groups_reused",
               static_cast<double>(reused));
      json.add(scen.pack.name + "_sweep_groups_recomputed",
               static_cast<double>(recomputed));
    }

    // Re-answer every scenario independently and insist on bitwise-equal
    // verdicts: the sweep's entire value rests on this equivalence.
    RunStats independent_stats;
    const auto independent_start = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < packs.size(); ++k) {
      const auto result =
          run_edge_analysis(world, rc.dataset, {}, {}, {}, rc.runtime,
                            &independent_stats, {}, {}, packs[k]);
      const WhatifReport report = whatif_report(result);
      if (report.verdict_hash != whatif_report(outcome.scenarios[k].result)
                                     .verdict_hash) {
        std::fprintf(stderr,
                     "whatif_scenarios: sweep verdict mismatch for %s "
                     "(%016llx != %016llx)\n",
                     packs[k].name.c_str(),
                     static_cast<unsigned long long>(
                         whatif_report(outcome.scenarios[k].result)
                             .verdict_hash),
                     static_cast<unsigned long long>(report.verdict_hash));
        return 1;
      }
    }
    const double independent_wall = seconds_since(independent_start);

    json.add("sweep_groups_reused", static_cast<double>(total_reused));
    json.add("sweep_groups_recomputed", static_cast<double>(total_recomputed));
    json.add("sweep_wall_seconds", sweep_wall);
    json.add("independent_wall_seconds", independent_wall);
    std::fprintf(stderr,
                 "[sweep] %zu scenarios: wall=%.3fs vs independent=%.3fs "
                 "(%.2fx) reused=%llu recomputed=%llu\n",
                 packs.size(), sweep_wall, independent_wall,
                 independent_wall > 0 ? sweep_wall / independent_wall : 0.0,
                 static_cast<unsigned long long>(total_reused),
                 static_cast<unsigned long long>(total_recomputed));
    bench::add_runtime_json(json, stats);
    stats.print("whatif_scenarios");
    return json.write() ? 0 : 1;
  }

  const auto baseline_result = run_edge_analysis(
      world, rc.dataset, {}, {}, {}, rc.runtime, &stats, {}, rc.cache);
  const WhatifReport baseline = whatif_report(baseline_result);
  std::printf("=== baseline ===\n");
  print_whatif_report(baseline);
  for (const auto& [name, value] : baseline.metrics) {
    json.add("baseline_" + name, value);
  }

  for (const auto& pack : packs) {
    const auto result = run_edge_analysis(world, rc.dataset, {}, {}, {},
                                          rc.runtime, &stats, {}, rc.cache,
                                          pack);
    const WhatifReport report = whatif_report(result);
    print_scenario_block(baseline, report, pack, result.faults);
    add_delta_json(json, baseline, report, pack.name);
  }

  bench::add_runtime_json(json, stats);
  stats.print("whatif_scenarios");
  return json.write() ? 0 : 1;
}
