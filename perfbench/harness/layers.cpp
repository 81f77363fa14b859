#include "layers.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "agg/classifier.h"
#include "agg/series_io.h"
#include "agg/window_columns.h"
#include "agg/window_verdict.h"
#include "runtime/alloc_counter.h"
#include "runtime/pipeline.h"
#include "sampler/session_batch.h"
#include "stream/stream_source.h"
#include "stream/window_machine.h"
#include "util/binio.h"

namespace perfbench {

using namespace fbedge;

namespace {

/// Per-thread arenas, reused across groups like the library's EdgeScratch.
struct IngestScratch {
  SessionBatch batch;
  CoalescedBatch coalesced;
  std::vector<SessionHd> hd;
  GroupSeries series;
  RouteAggPool pool;
  ByteWriter writer;
};

struct ProbeScratch {
  GroupSeries series;
  RouteAggPool pool;
  DegradationScratch degr_scratch;
  DegradationResult degr;
  std::vector<OpportunityWindow> opp;
  WindowColumns cols;
  std::vector<WindowObservation> obs;
  std::vector<const DegradationWindow*> degr_by_window;
  std::vector<const OpportunityWindow*> opp_by_window;
};

struct MonitorScratch {
  StreamSourceScratch source;
  WindowMachine machine;
  RollingBaseline baseline;
  WindowVerdict verdict;
};

void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t seen = target.load();
  while (value > seen && !target.compare_exchange_weak(seen, value)) {
  }
}

/// The library's classifier-input builder (analysis/edge_analysis.cpp).
template <typename EventFn, typename ValidFn, typename TrafficFn>
void make_observations_into(const WindowColumns& cols,
                            std::vector<WindowObservation>& obs, EventFn event,
                            ValidFn valid, TrafficFn traffic) {
  obs.clear();
  obs.reserve(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const int w = cols.window[i];
    WindowObservation o;
    o.window = w;
    o.has_traffic = cols.has_traffic[i] != 0;
    o.valid = valid(w);
    o.event = o.valid && event(w);
    o.traffic = traffic(w, cols.total_traffic[i]);
    obs.push_back(o);
  }
}

/// The 11 Table 1 classifications of one group, in the library's order.
void classify_all(ProbeScratch& s, const AnalysisThresholds& thresholds,
                  const ClassifierConfig& config) {
  const int total_windows = config.total_windows;
  const auto window_slot = [total_windows](auto& vec, int w) -> auto& {
    if (w >= static_cast<int>(vec.size())) {
      vec.resize(static_cast<std::size_t>(std::max(w + 1, total_windows)), nullptr);
    }
    return vec[static_cast<std::size_t>(w)];
  };
  const auto window_at = [](const auto& vec, int w) {
    return (w >= 0 && w < static_cast<int>(vec.size())) ? vec[static_cast<std::size_t>(w)]
                                                        : nullptr;
  };
  s.degr_by_window.clear();
  for (const auto& dw : s.degr.windows) window_slot(s.degr_by_window, dw.window) = &dw;
  s.opp_by_window.clear();
  for (const auto& ow : s.opp) window_slot(s.opp_by_window, ow.window) = &ow;

  s.cols.build(s.series);
  const auto degr_valid = [&](bool hd) {
    return [&s, &window_at, hd](int w) {
      const DegradationWindow* dw = window_at(s.degr_by_window, w);
      return dw != nullptr && (hd ? dw->hd.valid() : dw->rtt.valid());
    };
  };
  const auto degr_traffic = [&](int w, Bytes) {
    const DegradationWindow* dw = window_at(s.degr_by_window, w);
    return dw != nullptr ? dw->traffic : Bytes{0};
  };
  const auto opp_valid = [&](bool hd) {
    return [&s, &window_at, hd](int w) {
      const OpportunityWindow* ow = window_at(s.opp_by_window, w);
      return ow != nullptr && (hd ? ow->hd.valid() : ow->rtt.valid());
    };
  };
  const auto opp_traffic = [&](int w, Bytes total) {
    const OpportunityWindow* ow = window_at(s.opp_by_window, w);
    return ow != nullptr ? ow->traffic : total;
  };
  for (const Duration th : thresholds.degradation_rtt) {
    make_observations_into(
        s.cols, s.obs,
        [&](int w) { return window_at(s.degr_by_window, w)->rtt.exceeds(th); },
        degr_valid(false), degr_traffic);
    classify_temporal(s.obs, config);
  }
  for (const double th : thresholds.degradation_hd) {
    make_observations_into(
        s.cols, s.obs,
        [&](int w) { return window_at(s.degr_by_window, w)->hd.exceeds(th); },
        degr_valid(true), degr_traffic);
    classify_temporal(s.obs, config);
  }
  for (const Duration th : thresholds.opportunity_rtt) {
    make_observations_into(
        s.cols, s.obs,
        [&](int w) { return window_at(s.opp_by_window, w)->rtt_opportunity(th); },
        opp_valid(false), opp_traffic);
    classify_temporal(s.obs, config);
  }
  for (const double th : thresholds.opportunity_hd) {
    make_observations_into(
        s.cols, s.obs,
        [&](int w) { return window_at(s.opp_by_window, w)->hd_opportunity(th); },
        opp_valid(true), opp_traffic);
    classify_temporal(s.obs, config);
  }
}

}  // namespace

ClassifierConfig classifier_config_for(const DatasetConfig& config) {
  ClassifierConfig classifier;
  classifier.total_windows = config.days * 96;
  classifier.diurnal_days = std::max(2, (config.days + 1) / 2);
  return classifier;
}

std::string traced_ingest(Tracer* tracer, const DatasetGenerator& generator,
                          const UserGroupProfile& group, std::uint32_t group_id,
                          const GoodputConfig& goodput, LayerCounters& counters) {
  thread_local IngestScratch s;
  GroupSeries& series = s.series;
  s.pool.recycle(series);
  series.continent = group.continent;
  std::uint64_t sessions = 0, kept = 0, txns_in = 0, txns_out = 0, testable = 0;
  {
    ScopedSpan generate(tracer, Layer::kWorkload, group_id);
    generator.generate_group_batched(group, s.batch, [&](int, const SessionBatch& b) {
      const std::size_t rows = b.size();
      {
        ScopedSpan span(tracer, Layer::kSampler, group_id);
        coalesce_batch(b, b.hosting.data(), s.coalesced);
      }
      {
        ScopedSpan span(tracer, Layer::kGoodput, group_id);
        s.hd.resize(rows);
        evaluate_hd_batch(s.coalesced.txns.data(), s.coalesced.offset.data(),
                          s.coalesced.count.data(), rows, s.hd.data(), goodput);
      }
      {
        // The counts ride the aggregation loop: a few adds per row, billed
        // to agg.ingest rather than a loop of their own.
        ScopedSpan span(tracer, Layer::kAggIngest, group_id);
        for (std::size_t i = 0; i < rows; ++i) {
          if (b.hosting[i] != 0) continue;
          const std::optional<double> hd = s.hd[i].hdratio();
          series.windows[window_index(b.established_at[i])]
              .route_pooled(b.route_index[i], s.pool)
              .add_session(b.min_rtt[i], hd, b.total_bytes[i]);
          ++kept;
          txns_in += b.write_count[i];
          testable += hd ? 1 : 0;
        }
      }
      sessions += rows;
      txns_out += s.coalesced.txns.size();
    });
  }
  std::uint64_t cells = 0;
  for (const auto& [w, agg] : series.windows) cells += agg.routes.size();
  {
    ScopedSpan span(tracer, Layer::kAggSeriesSave, group_id);
    s.writer.clear();
    save_group_series(series, s.writer);
  }
  counters.sessions += sessions;
  counters.rows_kept += kept;
  counters.txns_in += txns_in;
  counters.txns_out += txns_out;
  counters.hd_testable += testable;
  counters.cells += cells;
  return s.writer.data();
}

bool traced_probe(Tracer* tracer, GroupBlobRef blob, std::uint32_t group_id,
                  const AnalysisThresholds& thresholds, const ComparisonConfig& comparison,
                  const ClassifierConfig& classifier, LayerCounters& counters) {
  thread_local ProbeScratch s;
  {
    ScopedSpan span(tracer, Layer::kAggSeriesLoad, group_id);
    ByteReader r(blob.data, blob.size);
    if (!load_group_series(r, s.series, &s.pool) || r.remaining() != 0) return false;
  }
  counters.series_bytes += blob.size;
  if (s.series.windows.empty()) return true;  // the reducer skips it too
  {
    ScopedSpan span(tracer, Layer::kAggDegradation, group_id);
    analyze_degradation_into(s.series, comparison, s.degr_scratch, s.degr);
  }
  {
    ScopedSpan span(tracer, Layer::kAggOpportunity, group_id);
    analyze_opportunity_into(s.series, comparison, s.opp);
  }
  {
    ScopedSpan span(tracer, Layer::kAggClassify, group_id);
    classify_all(s, thresholds, classifier);
  }
  std::uint64_t valid = 0;
  for (const auto& dw : s.degr.windows) valid += dw.rtt.valid() ? 1 : 0;
  counters.windows += s.series.windows.size();
  counters.valid_windows += valid;
  return true;
}

std::uint64_t traced_stream_monitor(Tracer* tracer, const World& world,
                                    const DatasetConfig& config,
                                    const StreamMonitorOptions& options,
                                    const RuntimeOptions& runtime, RunStats* stats,
                                    LayerCounters& counters, std::uint64_t* rows) {
  const DatasetGenerator generator(world, config);
  RollingBaselineConfig baseline_config = options.baseline;
  baseline_config.min_samples = options.comparison.min_samples;
  struct GroupOut {
    std::uint64_t hash{0};
    std::uint64_t rows{0};
  };
  auto partials = parallel_map_scratch<MonitorScratch>(
      world.groups.size(), runtime,
      [&](MonitorScratch& s, std::size_t g) {
        const auto group_id = static_cast<std::uint32_t>(g);
        s.baseline = RollingBaseline(baseline_config);
        Fnv64 hash;
        std::uint64_t seals = 0;
        const auto seal = [&](int window, WindowAgg& agg) {
          ScopedSpan span(tracer, Layer::kStreamVerdict, group_id);
          evaluate_window_verdict(window, agg, s.baseline, options.comparison, s.verdict);
          hash_window_verdict(s.verdict, hash);
          if ((++seals & 63u) == 0) rss_sample();
        };
        s.machine.start_group(options.allowed_lateness_windows, seal);
        FaultCounters faults;
        StreamSourceTotals totals;
        {
          ScopedSpan span(tracer, Layer::kStreamReplay, group_id);
          totals = replay_group_stream(
              generator, world.groups[g], options.goodput, options.max_batch_rows, {},
              faults, s.source, [&](int w, const StreamRow* r, std::size_t n) {
                ScopedSpan machine(tracer, Layer::kStreamMachine, group_id);
                s.machine.on_delivery(w, r, n);
              });
        }
        {
          ScopedSpan span(tracer, Layer::kStreamMachine, group_id);
          s.machine.flush();
        }
        counters.deliveries += totals.deliveries;
        counters.stream_rows += totals.rows;
        counters.sealed += s.machine.sealed_windows();
        counters.late_rows += s.machine.late_rows();
        atomic_max(counters.open_windows_peak, s.machine.open_windows_peak());
        return GroupOut{hash.value(), totals.rows};
      },
      stats);
  Fnv64 total;
  std::uint64_t total_rows = 0;
  for (const GroupOut& p : partials) {
    total.u64(p.hash);
    total_rows += p.rows;
  }
  if (rows) *rows = total_rows;
  return total.value();
}

}  // namespace perfbench
