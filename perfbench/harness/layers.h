// Traced mirrors of the program's per-group stages.
//
// The traced run cannot put spans inside the library, so it drives the
// same public calls the library makes, in the same order, from here:
//
//   * traced_ingest: the fault-free ingest of run_edge_analysis
//     (generate_group_batched -> coalesce_batch -> evaluate_hd_batch ->
//     add_session), then save_group_series. The blob it returns is handed
//     to EdgeReducer, so any drift from the library's ingest changes the
//     result digest and fails the run.
//   * traced_probe: the agg calls EdgeReducer makes on one group's series
//     (load, degradation, opportunity, the 11 temporal classifications),
//     re-driven on the same blob right before the reducer analyzes it.
//     The reducer's own fold stays private, so this work runs twice in a
//     traced run; the second copy shows in trace.overhead_s.
//   * traced_stream_monitor: run_stream_monitor's stream-mode body, whose
//     parts are all public, so the traced run replaces the library call.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "analysis/edge_analysis.h"
#include "analysis/edge_reduce.h"
#include "stream/monitor_pipeline.h"
#include "trace.h"

namespace perfbench {

/// Work counts of one traced operation, summed over groups. Pool tasks add
/// to these once per group or batch, never per session.
struct LayerCounters {
  std::atomic<std::uint64_t> sessions{0};      // rows generated
  std::atomic<std::uint64_t> rows_kept{0};     // rows not skipped as hosting,
                                                // each evaluated and aggregated
  std::atomic<std::uint64_t> txns_in{0};       // response writes coalesced
  std::atomic<std::uint64_t> txns_out{0};      // coalesced transactions
  std::atomic<std::uint64_t> hd_testable{0};   // kept rows with an HD signal
  std::atomic<std::uint64_t> cells{0};         // (window, route) cells built
  std::atomic<std::uint64_t> series_bytes{0};  // serialized series handled
  std::atomic<std::uint64_t> windows{0};       // series windows analyzed
  std::atomic<std::uint64_t> valid_windows{0};  // windows with a valid MinRTT
                                                // degradation comparison
  std::atomic<std::uint64_t> deliveries{0};
  std::atomic<std::uint64_t> stream_rows{0};
  std::atomic<std::uint64_t> sealed{0};
  std::atomic<std::uint64_t> open_windows_peak{0};  // max over groups
  std::atomic<std::uint64_t> late_rows{0};
};

/// The study-span classifier knobs run_edge_analysis derives from the
/// dataset config.
fbedge::ClassifierConfig classifier_config_for(const fbedge::DatasetConfig& config);

/// Ingests one group as the library's fault-free path does and returns its
/// serialized series.
std::string traced_ingest(Tracer* tracer, const fbedge::DatasetGenerator& generator,
                          const fbedge::UserGroupProfile& group, std::uint32_t group_id,
                          const fbedge::GoodputConfig& goodput, LayerCounters& counters);

/// Re-drives EdgeReducer's per-group agg calls on `blob`. Returns false if
/// the blob does not load (the reducer would then cold-ingest the group).
bool traced_probe(Tracer* tracer, fbedge::GroupBlobRef blob, std::uint32_t group_id,
                  const fbedge::AnalysisThresholds& thresholds,
                  const fbedge::ComparisonConfig& comparison,
                  const fbedge::ClassifierConfig& classifier, LayerCounters& counters);

/// Stream-mode run_stream_monitor (fault-free) with spans; returns the
/// total verdict hash and fills `rows` with the sessions replayed.
std::uint64_t traced_stream_monitor(Tracer* tracer, const fbedge::World& world,
                                    const fbedge::DatasetConfig& config,
                                    const fbedge::StreamMonitorOptions& options,
                                    const fbedge::RuntimeOptions& runtime,
                                    fbedge::RunStats* stats, LayerCounters& counters,
                                    std::uint64_t* rows);

}  // namespace perfbench
