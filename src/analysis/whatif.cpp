#include "analysis/whatif.h"

#include <algorithm>

#include "util/binio.h"

namespace fbedge {

namespace {

// Fixed quantile probes: enough to pin a CDF's shape without hashing every
// point (the point vectors' sizes are hashed, so silent droppage is caught
// regardless).
constexpr double kProbes[] = {0.01, 0.05, 0.10, 0.25, 0.50,
                              0.75, 0.90, 0.95, 0.99};

void hash_cdf(Fnv64& h, const WeightedCdf& cdf) {
  h.u64(cdf.size());
  if (cdf.empty()) return;
  for (const double q : kProbes) h.f64(cdf.quantile(q));
}

double quantile_or_zero(const WeightedCdf& cdf, double q) {
  return cdf.empty() ? 0.0 : cdf.quantile(q);
}

void hash_counters(Fnv64& h, const FaultCounters& c) {
  h.u64(c.truncated_records);
  h.u64(c.corrupt_records);
  h.u64(c.rejected_records);
  h.u64(c.duplicated_samples);
  h.u64(c.skewed_samples);
  h.u64(c.thinned_groups);
  h.u64(c.thinned_sessions);
  h.u64(c.pop_outage_groups);
  h.u64(c.dropped_windows);
  h.u64(c.stream_late_batches);
  h.u64(c.stream_duplicate_batches);
  h.u64(c.stream_dropped_rows);
  h.u64(c.task_aborts);
  h.u64(c.task_retries);
  h.u64(c.lost_groups);
  h.u64(c.scenario_drained_groups);
  h.u64(c.scenario_depref_groups);
  h.u64(c.scenario_flash_groups);
  h.u64(c.scenario_cable_cut_groups);
}

std::uint64_t verdict_hash(const EdgeAnalysisResult& r) {
  Fnv64 h;
  h.i64(r.groups_analyzed);
  h.f64(r.total_traffic);
  h.f64(r.degr_valid_traffic_rtt);
  h.f64(r.degr_valid_traffic_hd);
  h.f64(r.opp_valid_traffic_rtt);
  h.f64(r.opp_valid_traffic_hd);
  h.f64(r.rtt_within_3ms);
  h.f64(r.hd_within_0025);
  h.f64(r.rtt_improvable_5ms);
  h.f64(r.hd_improvable_005);
  for (const WeightedCdf* cdf :
       {&r.degr_rtt, &r.degr_rtt_lower, &r.degr_rtt_upper, &r.degr_hd,
        &r.degr_hd_lower, &r.degr_hd_upper, &r.opp_rtt, &r.opp_rtt_lower,
        &r.opp_rtt_upper, &r.opp_hd, &r.opp_hd_lower, &r.opp_hd_upper,
        &r.fig10_peer_vs_transit, &r.fig10_transit_vs_transit,
        &r.fig10_private_vs_public}) {
    hash_cdf(h, *cdf);
  }
  h.u64(r.table1.size());
  for (const auto& [key, cell] : r.table1) {
    h.u8(static_cast<std::uint8_t>(std::get<0>(key)));
    h.i64(std::get<1>(key));
    h.u8(static_cast<std::uint8_t>(std::get<2>(key)));
    h.i64(std::get<3>(key));
    h.f64(cell.group_traffic);
    h.f64(cell.event_traffic);
  }
  for (const auto* rows : {&r.table2_rtt, &r.table2_hd}) {
    h.u64(rows->size());
    for (const auto& [pair, row] : *rows) {
      h.u8(static_cast<std::uint8_t>(pair.first));
      h.u8(static_cast<std::uint8_t>(pair.second));
      h.f64(row.absolute);
      h.f64(row.longer);
      h.f64(row.prepended);
    }
  }
  hash_counters(h, r.faults);
  return h.value();
}

}  // namespace

WhatifReport whatif_report(const EdgeAnalysisResult& r) {
  WhatifReport rep;
  auto add = [&](const char* name, double value) {
    rep.metrics.emplace_back(name, value);
  };
  add("groups_analyzed", r.groups_analyzed);
  add("total_traffic", r.total_traffic);
  add("degr_valid_traffic_rtt", r.degr_valid_traffic_rtt);
  add("degr_valid_traffic_hd", r.degr_valid_traffic_hd);
  add("opp_valid_traffic_rtt", r.opp_valid_traffic_rtt);
  add("opp_valid_traffic_hd", r.opp_valid_traffic_hd);
  add("rtt_within_3ms", r.rtt_within_3ms);
  add("hd_within_0025", r.hd_within_0025);
  add("rtt_improvable_5ms", r.rtt_improvable_5ms);
  add("hd_improvable_005", r.hd_improvable_005);
  add("degr_rtt_p50_ms", quantile_or_zero(r.degr_rtt, 0.5) * 1e3);
  add("degr_rtt_p90_ms", quantile_or_zero(r.degr_rtt, 0.9) * 1e3);
  add("degr_rtt_p99_ms", quantile_or_zero(r.degr_rtt, 0.99) * 1e3);
  add("degr_hd_p50", quantile_or_zero(r.degr_hd, 0.5));
  add("degr_hd_p90", quantile_or_zero(r.degr_hd, 0.9));
  add("opp_rtt_p50_ms", quantile_or_zero(r.opp_rtt, 0.5) * 1e3);
  add("opp_rtt_p90_ms", quantile_or_zero(r.opp_rtt, 0.9) * 1e3);
  add("opp_rtt_p99_ms", quantile_or_zero(r.opp_rtt, 0.99) * 1e3);
  add("opp_hd_p50", quantile_or_zero(r.opp_hd, 0.5));
  add("opp_hd_p90", quantile_or_zero(r.opp_hd, 0.9));
  rep.verdict_hash = verdict_hash(r);
  return rep;
}

void print_whatif_report(const WhatifReport& report, std::FILE* out) {
  for (const auto& [name, value] : report.metrics) {
    std::fprintf(out, "%s = %.10g\n", name.c_str(), value);
  }
  std::fprintf(out, "verdict_hash = %016llx\n",
               static_cast<unsigned long long>(report.verdict_hash));
}

void print_whatif_deltas(const WhatifReport& baseline,
                         const WhatifReport& scenario, std::FILE* out) {
  const std::size_t n =
      std::min(baseline.metrics.size(), scenario.metrics.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [name, base] = baseline.metrics[i];
    const double cur = scenario.metrics[i].second;
    std::fprintf(out, "delta %s = %+.10g\n", name.c_str(), cur - base);
  }
}

void print_scenario_block(const WhatifReport& baseline,
                          const WhatifReport& report, const ScenarioPack& pack,
                          const FaultCounters& faults) {
  std::printf("=== scenario %s ===\n", pack.name.c_str());
  print_whatif_report(report);
  if (pack.empty()) return;
  std::printf(
      "applied: drained=%llu depref=%llu flash=%llu cable_cut=%llu\n",
      static_cast<unsigned long long>(faults.scenario_drained_groups),
      static_cast<unsigned long long>(faults.scenario_depref_groups),
      static_cast<unsigned long long>(faults.scenario_flash_groups),
      static_cast<unsigned long long>(faults.scenario_cable_cut_groups));
  print_whatif_deltas(baseline, report);
}

}  // namespace fbedge
