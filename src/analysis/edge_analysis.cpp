#include "analysis/edge_analysis.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>

#include "analysis/edge_reduce.h"

#include "agg/series_io.h"
#include "agg/window_columns.h"
#include "faultsim/fault_injector.h"
#include "routing/policy.h"
#include "sampler/session_batch.h"

namespace fbedge {

namespace {

/// Raw (unnormalized) Table 1 accumulator plus its normalization totals.
///
/// The key space is tiny and fully enumerable — (4 kinds) x (a handful of
/// thresholds) x (5 classes) x (overall + 6 continents) — so the former
/// `std::map<std::tuple<...>>` is a dense flat array indexed arithmetically:
/// add() on the per-group hot path is two array writes instead of two
/// red-black-tree inserts, and merge() is an elementwise loop. `touched`
/// preserves the map's presence semantics (a cell appears in the normalized
/// output only if some group was classified into it).
struct Table1Accumulator {
  static constexpr int kKinds = 4;
  static constexpr int kMaxThresholds = 8;
  static constexpr int kClasses = 5;  // TemporalClass values
  static constexpr int kScopes = kNumContinents + 1;  // index 0 = overall (-1)
  static constexpr int kCells = kKinds * kMaxThresholds * kClasses * kScopes;
  static constexpr int kDenoms = kKinds * kMaxThresholds * kScopes;

  std::array<Table1Cell, kCells> cells{};
  std::array<bool, kCells> touched{};
  std::array<double, kDenoms> denominators{};

  static int cell_index(AnalysisKind kind, int threshold_idx, TemporalClass cls,
                        int scope) {
    return ((static_cast<int>(kind) * kMaxThresholds + threshold_idx) * kClasses +
            static_cast<int>(cls)) *
               kScopes +
           (scope + 1);
  }
  static int denom_index(AnalysisKind kind, int threshold_idx, int scope) {
    return (static_cast<int>(kind) * kMaxThresholds + threshold_idx) * kScopes +
           (scope + 1);
  }

  void add(AnalysisKind kind, int threshold_idx, const Classification& c,
           int continent) {
    FBEDGE_EXPECT(threshold_idx < kMaxThresholds, "too many Table 1 thresholds");
    if (c.cls == TemporalClass::kExcluded) return;
    for (const int scope : {-1, continent}) {
      auto& cell = cells[static_cast<std::size_t>(cell_index(kind, threshold_idx,
                                                             c.cls, scope))];
      touched[static_cast<std::size_t>(cell_index(kind, threshold_idx, c.cls,
                                                  scope))] = true;
      cell.group_traffic += static_cast<double>(c.total_traffic);
      cell.event_traffic += static_cast<double>(c.event_traffic);
      denominators[static_cast<std::size_t>(denom_index(kind, threshold_idx, scope))] +=
          static_cast<double>(c.total_traffic);
    }
  }

  /// Folds another accumulator in. Elementwise over fixed indices, so every
  /// cell accumulates in the same (group-id) order the ordered-map version
  /// did — the merged sums are bitwise identical for any shard count.
  void merge(const Table1Accumulator& other) {
    for (int i = 0; i < kCells; ++i) {
      cells[static_cast<std::size_t>(i)].group_traffic +=
          other.cells[static_cast<std::size_t>(i)].group_traffic;
      cells[static_cast<std::size_t>(i)].event_traffic +=
          other.cells[static_cast<std::size_t>(i)].event_traffic;
      touched[static_cast<std::size_t>(i)] =
          touched[static_cast<std::size_t>(i)] || other.touched[static_cast<std::size_t>(i)];
    }
    for (int i = 0; i < kDenoms; ++i) {
      denominators[static_cast<std::size_t>(i)] +=
          other.denominators[static_cast<std::size_t>(i)];
    }
  }

  void normalize_into(decltype(EdgeAnalysisResult::table1)& out) const {
    // Same enumeration order as the former map's tuple ordering:
    // (kind, threshold, class, scope) with overall (-1) before continents.
    for (int k = 0; k < kKinds; ++k) {
      const auto kind = static_cast<AnalysisKind>(k);
      for (int t = 0; t < kMaxThresholds; ++t) {
        for (int c = 0; c < kClasses; ++c) {
          const auto cls = static_cast<TemporalClass>(c);
          for (int scope = -1; scope < kNumContinents; ++scope) {
            if (!touched[static_cast<std::size_t>(cell_index(kind, t, cls, scope))]) {
              continue;
            }
            const double denom =
                denominators[static_cast<std::size_t>(denom_index(kind, t, scope))];
            if (denom <= 0) continue;
            const auto& cell =
                cells[static_cast<std::size_t>(cell_index(kind, t, cls, scope))];
            Table1Cell normalized;
            normalized.group_traffic = cell.group_traffic / denom;
            normalized.event_traffic = cell.event_traffic / denom;
            out[{kind, t, cls, scope}] = normalized;
          }
        }
      }
    }
  }
};

/// Refills `obs` with classifier inputs for one group + one predicate over
/// windows. The buffer is reused across the 11 per-group classifications,
/// which all stream the same precomputed WindowColumns (window id,
/// has-traffic flag, total traffic) instead of re-walking the WindowAgg
/// cells per pass. `traffic(w, total)` receives the window's total traffic
/// for the opportunity passes' fallback.
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

/// Per-worker scratch for the reduce pass's tasks: every buffer here is
/// cleared (not shrunk) per group/window, so after each arena reaches its
/// high-water mark the whole generate -> coalesce -> HD -> aggregate loop
/// runs without per-session allocations. One instance per pool worker
/// (parallel_for_scratch); results are independent of which worker's
/// scratch served a group because every field is rebuilt before use.
struct EdgeScratch {
  SessionBatch batch;
  CoalescedBatch coalesced;
  std::vector<SessionHd> hd;
  CoalescedSession coalesce_scratch;  // legacy scalar path (fault runs)
  std::vector<WindowObservation> obs;
  WindowColumns cols;
  /// The group's aggregation series, recycled (not reallocated) between
  /// groups: route cells return to `pool` with their t-digest buffers
  /// intact, so steady-state ingest of a new group allocates almost
  /// nothing. A recycled series is behaviorally identical to a fresh one.
  GroupSeries series;
  RouteAggPool pool;
  /// Serialization buffer for the ingest-artifact cache's cold path.
  ByteWriter writer;
  /// Analysis-pass buffers, cleared per group.
  DegradationScratch degr_scratch;
  DegradationResult degr;
  std::vector<OpportunityWindow> opp;
  std::vector<const DegradationWindow*> degr_by_window;
  std::vector<const OpportunityWindow*> opp_by_window;
};

/// Most-preferred alternate (lowest index > 0) with the given relationship;
/// -1 if none. Routes are policy-ranked, so the first hit is the most
/// preferred (§6.3).
int first_alternate_of(const UserGroupProfile& group, Relationship rel) {
  for (int i = 1; i < static_cast<int>(group.routes.size()); ++i) {
    if (group.routes[static_cast<std::size_t>(i)].route.relationship == rel) return i;
  }
  return -1;
}

/// Everything one user group contributes to the sweep, before the final
/// normalizations. The sharded runtime produces one of these per group and
/// merges them in group-id order; the CDF fields and the raw table sums
/// live in an EdgeAnalysisResult whose scalar outputs stay zero until
/// normalization.
struct EdgePartial {
  EdgeAnalysisResult res;  // CDFs + raw table2 traffic sums
  Table1Accumulator table1;

  double degr_valid_rtt_traffic{0};
  double degr_valid_hd_traffic{0};
  double preferred_traffic_total{0};
  double opp_valid_rtt_traffic{0};
  double opp_valid_hd_traffic{0};
  double within3_traffic{0};
  double within0025_traffic{0};
  double improvable_rtt_traffic{0};
  double improvable_hd_traffic{0};

  void merge(const EdgePartial& other) {
    res.degr_rtt.merge(other.res.degr_rtt);
    res.degr_rtt_lower.merge(other.res.degr_rtt_lower);
    res.degr_rtt_upper.merge(other.res.degr_rtt_upper);
    res.degr_hd.merge(other.res.degr_hd);
    res.degr_hd_lower.merge(other.res.degr_hd_lower);
    res.degr_hd_upper.merge(other.res.degr_hd_upper);
    res.opp_rtt.merge(other.res.opp_rtt);
    res.opp_rtt_lower.merge(other.res.opp_rtt_lower);
    res.opp_rtt_upper.merge(other.res.opp_rtt_upper);
    res.opp_hd.merge(other.res.opp_hd);
    res.opp_hd_lower.merge(other.res.opp_hd_lower);
    res.opp_hd_upper.merge(other.res.opp_hd_upper);
    res.fig10_peer_vs_transit.merge(other.res.fig10_peer_vs_transit);
    res.fig10_transit_vs_transit.merge(other.res.fig10_transit_vs_transit);
    res.fig10_private_vs_public.merge(other.res.fig10_private_vs_public);
    for (const auto& [pair, row] : other.res.table2_rtt) {
      auto& mine = res.table2_rtt[pair];
      mine.absolute += row.absolute;
      mine.longer += row.longer;
      mine.prepended += row.prepended;
    }
    for (const auto& [pair, row] : other.res.table2_hd) {
      auto& mine = res.table2_hd[pair];
      mine.absolute += row.absolute;
      mine.longer += row.longer;
      mine.prepended += row.prepended;
    }
    res.total_traffic += other.res.total_traffic;
    res.groups_analyzed += other.res.groups_analyzed;
    res.sessions_analyzed += other.res.sessions_analyzed;
    res.faults.accumulate(other.res.faults);
    table1.merge(other.table1);

    degr_valid_rtt_traffic += other.degr_valid_rtt_traffic;
    degr_valid_hd_traffic += other.degr_valid_hd_traffic;
    preferred_traffic_total += other.preferred_traffic_total;
    opp_valid_rtt_traffic += other.opp_valid_rtt_traffic;
    opp_valid_hd_traffic += other.opp_valid_hd_traffic;
    within3_traffic += other.within3_traffic;
    within0025_traffic += other.within0025_traffic;
    improvable_rtt_traffic += other.improvable_rtt_traffic;
    improvable_hd_traffic += other.improvable_hd_traffic;
  }
};

/// The fault-free ingest body for one window range: generates `group`'s
/// sessions from `cursor` up to the chunk cut at or after `cut`
/// (advance_to_cut) and folds them into `series`, one window of sessions
/// at a time through coalesce -> HD -> aggregate in the worker's arenas
/// (route cells come from `scratch.pool`). Whole-group ingest is the
/// one-chunk case (cursor at window 0, cut at the span's end); a split
/// group runs it once per chunk into that chunk's own series.
void ingest_windows(EdgeScratch& scratch, const DatasetGenerator& generator,
                    const UserGroupProfile& group, const GoodputConfig& goodput,
                    GroupCursor& cursor, int cut, GroupSeries& series) {
  // Rows arrive in the same order generate_group emits sessions and carry
  // bit-identical values (same simulation template, same RNG stream), and
  // the window index is still computed per row from established_at — a
  // session's start is drawn in [window_start, window_start +
  // kWindowLength], so trusting the nominal window id would mis-bin a draw
  // that lands exactly on the upper boundary.
  const WindowBatchSink sink = [&](int bw, const SessionBatch& b) {
    // Hosting-provider rows (the §2.2.4 keep_for_analysis filter) are
    // skipped before coalescing ever sees them.
    coalesce_batch(b, b.hosting.data(), scratch.coalesced);
    const std::size_t rows = b.size();
    scratch.hd.resize(rows);
    evaluate_hd_batch(scratch.coalesced.txns.data(), scratch.coalesced.offset.data(),
                      scratch.coalesced.count.data(), rows, scratch.hd.data(), goodput);
    for (std::size_t i = 0; i < rows; ++i) {
      if (b.hosting[i] != 0) continue;
      series.windows[window_index(b.established_at[i])]
          .route_pooled(b.route_index[i], scratch.pool)
          .add_session(b.min_rtt[i], scratch.hd[i].hdratio(), b.total_bytes[i]);
    }
    // A row never lands before its batch's window (start >= window_start),
    // so window bw takes no more adds: compress it now, where the lazy
    // query compress would, and drop its buffers.
    if (WindowAgg* done = series.windows.find(bw)) {
      for (RouteWindowAgg& cell : done->routes) cell.trim();
    }
  };
  advance_to_cut(cursor, cut, generator.total_windows(),
                 [&](GroupCursor& c, int end) {
                   generator.generate_windows_batched(group, c, end, scratch.batch, sink);
                 });
}

/// The ingest half of the pipeline: simulates this group's sampled
/// sessions and folds them into `scratch.series` (recycled through
/// `scratch.pool` first). This is the expensive, cacheable stage — its
/// product is a pure function of (world, config, goodput, faults), and on
/// fault-free runs it is exactly what the ingest-artifact cache persists.
void ingest_group(EdgeScratch& scratch, const DatasetGenerator& generator,
                  const UserGroupProfile& group, const GoodputConfig& goodput,
                  const FaultPlan& faults, FaultCounters& fault_counters) {
  GroupSeries& series = scratch.series;
  scratch.pool.recycle(series);
  series.continent = group.continent;
  if (!faults.sampler_faults()) {
    GroupCursor cursor = generator.group_cursor(group);
    ingest_windows(scratch, generator, group, goodput, cursor,
                   generator.total_windows(), series);
  } else {
    // The fault stage sits where the load balancer hands records to the
    // analytics tier; records that fail semantic validation after a fault
    // never reach metric extraction. Fault injection mutates individual
    // records (truncation, duplication, skew), so this path keeps the
    // scalar per-session representation.
    const auto ingest = [&](const SessionSample& s) {
      if (!SessionSampler::keep_for_analysis(s.client)) return;
      const SessionMetrics m =
          compute_session_metrics(s, scratch.coalesce_scratch, goodput);
      series.windows[window_index(s.established_at)]
          .route(s.route_index)
          .add_session(m.min_rtt, m.hdratio, m.traffic);
    };
    SamplerFaultStage stage(faults, group.key);
    generator.generate_group(
        group, [&](const SessionSample& s) { stage.apply(s, ingest); });
    fault_counters.accumulate(stage.counters());
  }
  if (faults.agg_faults()) {
    AggFaultStage(faults).apply(series, group_fault_key(group.key), fault_counters);
  }
}

/// Windows per chunk of a split group's ingest: one day.
constexpr int kSplitStrideWindows = 96;

/// One split group's shared ingest state inside a reduce_all pass. Chunk k
/// covers the windows from cut k to cut k + 1 (advance_to_cut from k *
/// kSplitStrideWindows), so chunks share no window and appending their
/// series in chunk order rebuilds the whole-group series exactly.
class SplitIngest {
 public:
  void start(int chunks) {
    chunks_.resize(static_cast<std::size_t>(chunks));
    cursors_.reserve(static_cast<std::size_t>(chunks));
    pending_.store(chunks, std::memory_order_relaxed);
  }

  /// Ingests chunk k into its own series, with cells from the worker's
  /// pool. Returns true on the task that finishes the group's last chunk:
  /// the whole series is then assembled in `scratch.series`.
  bool ingest_chunk(EdgeScratch& scratch, const DatasetGenerator& generator,
                    const UserGroupProfile& group, const GoodputConfig& goodput,
                    int k) {
    GroupCursor cursor = cursor_at(generator, group, k);
    // The worker's idle series lends its cells to the chunk.
    scratch.pool.recycle(scratch.series);
    ingest_windows(scratch, generator, group, goodput, cursor,
                   std::min((k + 1) * kSplitStrideWindows, generator.total_windows()),
                   chunks_[static_cast<std::size_t>(k)]);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
    scratch.series.continent = group.continent;
    for (GroupSeries& chunk : chunks_) scratch.series.windows.append(std::move(chunk.windows));
    chunks_ = {};
    return true;
  }

 private:
  /// Chunk k's start cursor. The table grows in chunk order, one count-only
  /// skip per step under the mutex, so a chunk waits only for the skips
  /// before its own start.
  GroupCursor cursor_at(const DatasetGenerator& generator,
                        const UserGroupProfile& group, int k) {
    for (;;) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (cursors_.size() > static_cast<std::size_t>(k)) {
        return cursors_[static_cast<std::size_t>(k)];
      }
      if (cursors_.empty()) {
        cursors_.push_back(generator.group_cursor(group));
        continue;
      }
      GroupCursor next = cursors_.back();
      advance_to_cut(next, static_cast<int>(cursors_.size()) * kSplitStrideWindows,
                     generator.total_windows(), [&](GroupCursor& c, int end) {
                       generator.skip_windows(group, c, end);
                     });
      cursors_.push_back(next);
    }
  }

  std::mutex mutex_;
  std::vector<GroupCursor> cursors_;  // cursors_[k]: start of chunk k
  std::vector<GroupSeries> chunks_;
  std::atomic<int> pending_{0};  // chunks not yet ingested
};

/// The analysis half: everything downstream of the per-group series —
/// degradation, opportunity, temporal classification, Tables 1-2, Fig. 10.
/// Consumes `series` read-only, so it runs identically on a freshly
/// ingested series and on one deserialized from the artifact cache.
void analyze_series_into(EdgeScratch& scratch, const GroupSeries& series,
                         const UserGroupProfile& group,
                         const AnalysisThresholds& thresholds,
                         const ComparisonConfig& comparison,
                         const ClassifierConfig& classifier_config,
                         EdgePartial& part) {
  EdgeAnalysisResult& out = part.res;
  if (series.windows.empty()) return;
  out.total_traffic += static_cast<double>(series.total_traffic());
  for (const auto& [w, agg] : series.windows) {
    if (const RouteWindowAgg* pref = agg.route(0)) {
      part.preferred_traffic_total += static_cast<double>(pref->traffic());
    }
    for (const RouteWindowAgg& cell : agg.routes) {
      out.sessions_analyzed += static_cast<std::uint64_t>(cell.sessions());
    }
  }
  ++out.groups_analyzed;
  const int continent = static_cast<int>(group.continent);

  // Window indexes are dense small ints (< days * 96), so the per-window
  // degradation/opportunity lookups are flat pointer vectors instead of
  // hash maps; lookup on the classification path is one indexed load.
  const int total_windows = classifier_config.total_windows;
  const auto window_slot = [total_windows](auto& vec, int w) -> auto& {
    if (w >= static_cast<int>(vec.size())) {
      vec.resize(static_cast<std::size_t>(std::max(w + 1, total_windows)), nullptr);
    }
    return vec[static_cast<std::size_t>(w)];
  };
  const auto window_at = [](const auto& vec, int w) {
    return (w >= 0 && w < static_cast<int>(vec.size()))
               ? vec[static_cast<std::size_t>(w)]
               : nullptr;
  };

  // ---- degradation (§5, Fig. 8) ------------------------------------------
  analyze_degradation_into(series, comparison, scratch.degr_scratch, scratch.degr);
  const DegradationResult& degr = scratch.degr;
  std::vector<const DegradationWindow*>& degr_by_window = scratch.degr_by_window;
  degr_by_window.clear();
  for (const auto& dw : degr.windows) {
    window_slot(degr_by_window, dw.window) = &dw;
    const double weight = std::max<double>(1, static_cast<double>(dw.traffic));
    if (dw.rtt.valid()) {
      part.degr_valid_rtt_traffic += static_cast<double>(dw.traffic);
      out.degr_rtt.add(dw.rtt.diff.estimate, weight);
      out.degr_rtt_lower.add(dw.rtt.diff.lower, weight);
      out.degr_rtt_upper.add(dw.rtt.diff.upper, weight);
    }
    if (dw.hd.valid()) {
      part.degr_valid_hd_traffic += static_cast<double>(dw.traffic);
      out.degr_hd.add(dw.hd.diff.estimate, weight);
      out.degr_hd_lower.add(dw.hd.diff.lower, weight);
      out.degr_hd_upper.add(dw.hd.diff.upper, weight);
    }
  }

  // ---- opportunity (§6, Fig. 9) ------------------------------------------
  analyze_opportunity_into(series, comparison, scratch.opp);
  const std::vector<OpportunityWindow>& opp = scratch.opp;
  std::vector<const OpportunityWindow*>& opp_by_window = scratch.opp_by_window;
  opp_by_window.clear();
  for (const auto& ow : opp) {
    window_slot(opp_by_window, ow.window) = &ow;
    const double weight = std::max<double>(1, static_cast<double>(ow.traffic));
    if (ow.rtt.valid()) {
      part.opp_valid_rtt_traffic += static_cast<double>(ow.traffic);
      out.opp_rtt.add(ow.rtt.diff.estimate, weight);
      out.opp_rtt_lower.add(ow.rtt.diff.lower, weight);
      out.opp_rtt_upper.add(ow.rtt.diff.upper, weight);
      // Preferred within 3 ms of optimal: the alternate is at most 3 ms
      // faster (diff = preferred - alternate).
      if (ow.rtt.diff.estimate <= 0.003) {
        part.within3_traffic += static_cast<double>(ow.traffic);
      }
      if (ow.rtt_opportunity(thresholds.opportunity_rtt.front())) {
        part.improvable_rtt_traffic += static_cast<double>(ow.traffic);
      }
    }
    if (ow.hd.valid()) {
      part.opp_valid_hd_traffic += static_cast<double>(ow.traffic);
      out.opp_hd.add(ow.hd.diff.estimate, weight);
      out.opp_hd_lower.add(ow.hd.diff.lower, weight);
      out.opp_hd_upper.add(ow.hd.diff.upper, weight);
      if (ow.hd.diff.estimate <= 0.025) {
        part.within0025_traffic += static_cast<double>(ow.traffic);
      }
      if (ow.hd_opportunity(thresholds.opportunity_hd.front())) {
        part.improvable_hd_traffic += static_cast<double>(ow.traffic);
      }
    }
  }

  // ---- Table 1: temporal classification at every threshold ---------------
  scratch.cols.build(series);  // streamed by all 11 classifications
  for (std::size_t t = 0; t < thresholds.degradation_rtt.size(); ++t) {
    const Duration th = thresholds.degradation_rtt[t];
    make_observations_into(
        scratch.cols, scratch.obs,
        [&](int w) { return window_at(degr_by_window, w)->rtt.exceeds(th); },
        [&](int w) {
          const DegradationWindow* dw = window_at(degr_by_window, w);
          return dw != nullptr && dw->rtt.valid();
        },
        [&](int w, Bytes) {
          const DegradationWindow* dw = window_at(degr_by_window, w);
          return dw != nullptr ? dw->traffic : Bytes{0};
        });
    part.table1.add(AnalysisKind::kDegradationRtt, static_cast<int>(t),
                    classify_temporal(scratch.obs, classifier_config), continent);
  }
  for (std::size_t t = 0; t < thresholds.degradation_hd.size(); ++t) {
    const double th = thresholds.degradation_hd[t];
    make_observations_into(
        scratch.cols, scratch.obs,
        [&](int w) { return window_at(degr_by_window, w)->hd.exceeds(th); },
        [&](int w) {
          const DegradationWindow* dw = window_at(degr_by_window, w);
          return dw != nullptr && dw->hd.valid();
        },
        [&](int w, Bytes) {
          const DegradationWindow* dw = window_at(degr_by_window, w);
          return dw != nullptr ? dw->traffic : Bytes{0};
        });
    part.table1.add(AnalysisKind::kDegradationHd, static_cast<int>(t),
                    classify_temporal(scratch.obs, classifier_config), continent);
  }
  for (std::size_t t = 0; t < thresholds.opportunity_rtt.size(); ++t) {
    const Duration th = thresholds.opportunity_rtt[t];
    make_observations_into(
        scratch.cols, scratch.obs,
        [&](int w) { return window_at(opp_by_window, w)->rtt_opportunity(th); },
        [&](int w) {
          const OpportunityWindow* ow = window_at(opp_by_window, w);
          return ow != nullptr && ow->rtt.valid();
        },
        [&](int w, Bytes total) {
          const OpportunityWindow* ow = window_at(opp_by_window, w);
          return ow != nullptr ? ow->traffic : total;
        });
    part.table1.add(AnalysisKind::kOpportunityRtt, static_cast<int>(t),
                    classify_temporal(scratch.obs, classifier_config), continent);
  }
  for (std::size_t t = 0; t < thresholds.opportunity_hd.size(); ++t) {
    const double th = thresholds.opportunity_hd[t];
    make_observations_into(
        scratch.cols, scratch.obs,
        [&](int w) { return window_at(opp_by_window, w)->hd_opportunity(th); },
        [&](int w) {
          const OpportunityWindow* ow = window_at(opp_by_window, w);
          return ow != nullptr && ow->hd.valid();
        },
        [&](int w, Bytes total) {
          const OpportunityWindow* ow = window_at(opp_by_window, w);
          return ow != nullptr ? ow->traffic : total;
        });
    part.table1.add(AnalysisKind::kOpportunityHd, static_cast<int>(t),
                    classify_temporal(scratch.obs, classifier_config), continent);
  }

  // ---- Table 2: opportunity by relationship pair -------------------------
  const Route& preferred_route = group.routes.front().route;
  for (const auto& ow : opp) {
    if (ow.rtt_alternate > 0 &&
        ow.rtt_opportunity(thresholds.opportunity_rtt.front())) {
      const Route& alt = group.routes[static_cast<std::size_t>(ow.rtt_alternate)].route;
      auto& row = out.table2_rtt[{preferred_route.relationship, alt.relationship}];
      const double tr = static_cast<double>(ow.traffic);
      row.absolute += tr;
      if (RoutingPolicy::lost_on_as_path(preferred_route, alt)) row.longer += tr;
      if (alt.prepend_count() > preferred_route.prepend_count()) row.prepended += tr;
    }
    if (ow.hd_alternate > 0 && ow.hd_opportunity(thresholds.opportunity_hd.front())) {
      const Route& alt = group.routes[static_cast<std::size_t>(ow.hd_alternate)].route;
      auto& row = out.table2_hd[{preferred_route.relationship, alt.relationship}];
      const double tr = static_cast<double>(ow.traffic);
      row.absolute += tr;
      if (RoutingPolicy::lost_on_as_path(preferred_route, alt)) row.longer += tr;
      if (alt.prepend_count() > preferred_route.prepend_count()) row.prepended += tr;
    }
  }

  // ---- Fig. 10: relationship-type comparisons ----------------------------
  struct RelComparison {
    WeightedCdf* cdf;
    bool applies;
    int alt_index;
  };
  const bool pref_is_peer = is_peer(preferred_route.relationship);
  const int alt_transit = first_alternate_of(group, Relationship::kTransit);
  const int alt_public = first_alternate_of(group, Relationship::kPublicPeer);
  const RelComparison comparisons[] = {
      {&out.fig10_peer_vs_transit, pref_is_peer && alt_transit > 0, alt_transit},
      {&out.fig10_transit_vs_transit,
       preferred_route.relationship == Relationship::kTransit && alt_transit > 0,
       alt_transit},
      {&out.fig10_private_vs_public,
       preferred_route.relationship == Relationship::kPrivatePeer && alt_public > 0,
       alt_public},
  };
  for (const auto& rc : comparisons) {
    if (!rc.applies) continue;
    for (const auto& [w, agg] : series.windows) {
      const RouteWindowAgg* pref = agg.route(0);
      const RouteWindowAgg* alt = agg.route(rc.alt_index);
      if (!pref || !alt) continue;
      const Comparison cmp = compare_minrtt(*pref, *alt, comparison);
      if (!cmp.valid()) continue;
      rc.cdf->add(cmp.diff.estimate,
                  std::max<double>(1, static_cast<double>(agg.total_traffic())));
    }
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Classifier knobs derived from the study span (shared by every reduce
/// path so a distributed run classifies exactly like an in-process one).
ClassifierConfig make_classifier_config(const DatasetConfig& config) {
  ClassifierConfig classifier_config;
  classifier_config.total_windows = config.days * 96;
  // Diurnal detection needs the pattern to repeat on multiple days; scale
  // the day requirement to the study span (the paper's 5 of 10 days).
  classifier_config.diurnal_days = std::max(2, (config.days + 1) / 2);
  return classifier_config;
}

/// The final normalizations: raw merged sums -> the fractions the paper
/// reports. One implementation for every reduce path (in-process or
/// artifact-driven), so a distributed run cannot drift from a local one.
EdgeAnalysisResult finalize_edge_result(EdgePartial&& total) {
  EdgeAnalysisResult out = std::move(total.res);

  total.table1.normalize_into(out.table1);
  for (auto* rows : {&out.table2_rtt, &out.table2_hd}) {
    for (auto& [pair, row] : *rows) {
      row.absolute /= std::max(1.0, out.total_traffic);
      // longer/prepended stay relative to the pair's own opportunity below.
    }
  }
  for (auto* rows : {&out.table2_rtt, &out.table2_hd}) {
    for (auto& [pair, row] : *rows) {
      const double abs_traffic = row.absolute * std::max(1.0, out.total_traffic);
      if (abs_traffic > 0) {
        row.longer /= abs_traffic;
        row.prepended /= abs_traffic;
      }
    }
  }

  // Degradation analysis covers preferred-route traffic only (§2.2.3);
  // validity fractions are therefore relative to preferred-route traffic.
  out.degr_valid_traffic_rtt =
      total.degr_valid_rtt_traffic / std::max(1.0, total.preferred_traffic_total);
  out.degr_valid_traffic_hd =
      total.degr_valid_hd_traffic / std::max(1.0, total.preferred_traffic_total);
  out.opp_valid_traffic_rtt =
      total.opp_valid_rtt_traffic / std::max(1.0, out.total_traffic);
  out.opp_valid_traffic_hd =
      total.opp_valid_hd_traffic / std::max(1.0, out.total_traffic);
  out.rtt_within_3ms =
      total.within3_traffic / std::max(1.0, total.opp_valid_rtt_traffic);
  out.hd_within_0025 =
      total.within0025_traffic / std::max(1.0, total.opp_valid_hd_traffic);
  out.rtt_improvable_5ms =
      total.improvable_rtt_traffic / std::max(1.0, total.opp_valid_rtt_traffic);
  out.hd_improvable_005 =
      total.improvable_hd_traffic / std::max(1.0, total.opp_valid_hd_traffic);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// EdgeReducer: the group-id-order fold behind both run_edge_analysis and
// the multi-process coordinator (analysis/edge_reduce.h).
// ---------------------------------------------------------------------------

struct EdgeReducer::Impl {
  const World& world;
  DatasetConfig config;
  AnalysisThresholds thresholds;
  ComparisonConfig comparison;
  GoodputConfig goodput;
  FaultPlan faults;
  ClassifierConfig classifier_config;
  DatasetGenerator generator;
  EdgePartial total;
  std::uint64_t blob_groups{0};
  /// Per group, the folded partial (keep_partials()); empty when not kept.
  std::vector<std::unique_ptr<EdgePartial>> kept;

  Impl(const World& world_in, const DatasetConfig& config_in,
       const AnalysisThresholds& thresholds_in,
       const ComparisonConfig& comparison_in, GoodputConfig goodput_in,
       const FaultPlan& faults_in)
      : world(world_in),
        config(config_in),
        thresholds(thresholds_in),
        comparison(comparison_in),
        goodput(goodput_in),
        faults(faults_in),
        classifier_config(make_classifier_config(config_in)),
        generator(world_in, config) {
    FBEDGE_EXPECT(!faults.runtime_faults() || faults.task_max_attempts >= 1,
                  "task aborts need at least one attempt per group");
  }
};

EdgeReducer::EdgeReducer(const World& world, const DatasetConfig& config,
                         const AnalysisThresholds& thresholds,
                         const ComparisonConfig& comparison,
                         GoodputConfig goodput, const FaultPlan& faults)
    : impl_(std::make_unique<Impl>(world, config, thresholds, comparison,
                                   goodput, faults)) {}

EdgeReducer::~EdgeReducer() = default;

void EdgeReducer::reduce_range(const ShardRange& range, const BlobFn& blob,
                               const RuntimeOptions& runtime, RunStats* stats,
                               const SaveFn* save) {
  reduce_all({RangeJob{this, range, blob, save}}, runtime, stats);
}

void EdgeReducer::reduce_world(const RuntimeOptions& runtime, RunStats* stats,
                               const IngestCacheOptions& cache) {
  // Faulted runs bypass the cache entirely — no read, no write. A faulted
  // series must never be persisted (it would poison fault-free runs), and
  // serving a clean artifact to a faulted run would silently disable the
  // injection under test.
  const Impl& im = *impl_;
  const bool use_cache = cache.enabled() && !im.faults.enabled();
  const std::size_t group_count = im.world.groups.size();
  std::uint64_t cache_key = 0;
  std::string artifact_path;
  IngestArtifact artifact;
  bool warm = false;
  if (use_cache) {
    cache_key = ingest_cache_key(im.world, im.config, im.goodput);
    artifact_path = ingest_artifact_path(cache.dir, cache_key);
    const auto t0 = std::chrono::steady_clock::now();
    warm = read_ingest_artifact(artifact_path, cache_key, group_count, artifact);
    if (stats) stats->cache_load_seconds += seconds_since(t0);
  }

  // On a warm run each group deserializes its blob instead of ingesting
  // (falling back to cold ingest if its blob is structurally invalid); on
  // a cold cache-enabled run each group additionally serializes its series
  // into `blobs[g]` (each slot written by exactly one task). Neither
  // introduces any cross-thread order dependence — warm, cold, and
  // uncached runs stay byte-identical.
  BlobFn blob_fn;
  if (warm) {
    blob_fn = [&artifact](std::size_t g) {
      const auto [offset, length] = artifact.blobs[g];
      return GroupBlobRef{artifact.bytes.data() + offset, length};
    };
  }
  std::vector<std::string> blobs;
  SaveFn save_fn;
  if (use_cache && !warm) {
    blobs.resize(group_count);
    save_fn = [&blobs](std::size_t g, std::string&& blob) {
      blobs[g] = std::move(blob);
    };
  }
  const std::uint64_t hits_before = im.blob_groups;
  reduce_range(ShardRange{0, group_count}, blob_fn, runtime, stats,
               save_fn ? &save_fn : nullptr);
  if (use_cache && stats) {
    const std::uint64_t hits = im.blob_groups - hits_before;
    stats->cache_hits += hits;
    stats->cache_misses += static_cast<std::uint64_t>(group_count) - hits;
  }
  if (use_cache && !warm) {
    const auto t0 = std::chrono::steady_clock::now();
    write_ingest_artifact(artifact_path, cache_key, blobs);
    if (stats) stats->cache_save_seconds += seconds_since(t0);
  }
}

void EdgeReducer::keep_partials() {
  FBEDGE_EXPECT(!impl_->faults.enabled(), "a faulted reducer's partials are never spliced");
  impl_->kept.resize(impl_->world.groups.size());
}

void EdgeReducer::reduce_all(const std::vector<RangeJob>& jobs,
                             const RuntimeOptions& runtime, RunStats* stats) {
  // One slot per (job, group), laid out job by job in ascending group
  // order: the fold order. A spliced slot points at its source's kept
  // partial and gets no task; every other slot owns one partial.
  constexpr std::size_t kWhole = static_cast<std::size_t>(-1);
  struct Slot {
    std::size_t job;
    std::size_t group;
    const EdgePartial* spliced{nullptr};
    std::size_t part{0};        // index into `partials` for an unspliced slot
    std::size_t split{kWhole};  // index into `splits` for a split slot
  };
  std::vector<Slot> slots;
  std::size_t parts = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const RangeJob& job = jobs[j];
    FBEDGE_EXPECT(job.range.end <= job.reducer->impl_->world.groups.size(),
                  "reduce range exceeds the world's group count");
    FBEDGE_EXPECT(!job.splice || !job.reducer->impl_->faults.enabled(),
                  "a faulted reducer never splices");
    auto next_affected = job.affected.begin();
    for (std::size_t g = job.range.begin; g < job.range.end; ++g) {
      while (next_affected != job.affected.end() && *next_affected < g) ++next_affected;
      const bool spliced =
          job.splice && (next_affected == job.affected.end() || *next_affected != g);
      if (!spliced) {
        slots.push_back({.job = j, .group = g, .part = parts++});
        continue;
      }
      const auto& kept = job.splice->impl_->kept;
      FBEDGE_EXPECT(g < kept.size() && kept[g],
                    "splice source kept no partial for the group");
      slots.push_back({j, g, kept[g].get()});
    }
  }
  if (slots.empty()) return;

  // The cost estimate: a known-cold group of a fault-free reducer expects
  // its sessions; a blob load, a splice and a faulted reducer's task 0.
  // The split schedule: a known-cold group bigger than its fair share of
  // the pass's known-cold sessions becomes one task per chunk of windows.
  // At one thread nothing exceeds the whole.
  std::vector<double> cold_sessions(slots.size(), 0.0);
  double cold_total = 0;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const RangeJob& job = jobs[slots[s].job];
    const Impl& im = *job.reducer->impl_;
    if (slots[s].spliced || job.blob || im.faults.enabled()) continue;
    cold_sessions[s] = im.world.groups[slots[s].group].sessions_per_window *
                       im.config.session_scale * im.generator.total_windows();
    cold_total += cold_sessions[s];
  }
  const double fair_share = cold_total / resolve_threads(runtime.threads);
  struct Task {
    std::size_t slot;
    int chunk;
    double cost;
  };
  std::vector<Task> tasks;
  std::vector<int> split_chunks;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (slots[s].spliced) continue;
    const int windows = jobs[slots[s].job].reducer->impl_->generator.total_windows();
    const int chunks = cold_sessions[s] > fair_share
                           ? (windows + kSplitStrideWindows - 1) / kSplitStrideWindows
                           : 1;
    if (chunks > 1) {
      slots[s].split = split_chunks.size();
      split_chunks.push_back(chunks);
    }
    for (int c = 0; c < chunks; ++c) tasks.push_back({s, c, cold_sessions[s] / chunks});
  }
  // Longest expected task first. The sort is stable, so a split group's
  // chunks stay in ascending order (each chunk's start cursor extends the
  // one before it) and zero-cost tasks keep their fold order.
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Task& a, const Task& b) { return a.cost > b.cost; });
  std::vector<SplitIngest> splits(split_chunks.size());
  for (std::size_t i = 0; i < splits.size(); ++i) splits[i].start(split_chunks[i]);

  // Partials, blob flags and aborted-attempt counts are per unspliced
  // slot, each written by exactly one task (a split slot's by its last
  // chunk), so nothing depends on the order tasks finish in.
  std::vector<EdgePartial> partials(parts);
  std::vector<std::uint8_t> from_blob(parts, 0);
  std::vector<int> aborted(parts, 0);
  // The pool runs one call per task; each call claims the next task in
  // sorted order, whichever worker runs it.
  std::atomic<std::size_t> cursor{0};
  parallel_for_scratch<EdgeScratch>(
      tasks.size(), runtime,
      [&](EdgeScratch& scratch, std::size_t) {
        const Task& task = tasks[cursor.fetch_add(1, std::memory_order_relaxed)];
        const Slot& slot = slots[task.slot];
        const RangeJob& job = jobs[slot.job];
        const Impl& im = *job.reducer->impl_;
        const std::size_t g = slot.group;
        const UserGroupProfile& group = im.world.groups[g];
        EdgePartial& part = partials[slot.part];
        if (im.faults.runtime_faults()) {
          // Task aborts: pure in (plan, group, attempt), so which groups are
          // lost does not depend on the schedule. An aborted attempt does no
          // work; a slot whose every attempt aborts is lost. Faulted
          // reducers never split, so this is the slot's only task.
          int& attempt = aborted[slot.part];
          const std::uint64_t key = group_fault_key(group.key);
          while (attempt < im.faults.task_max_attempts &&
                 task_abort_decision(im.faults, key, attempt)) {
            ++attempt;
          }
          if (attempt == im.faults.task_max_attempts) return;
        }
        // A cold-ingested series in scratch.series: save, then analyze.
        const auto finish_cold = [&] {
          if (job.save != nullptr && *job.save) {
            scratch.writer.clear();
            save_group_series(scratch.series, scratch.writer);
            std::string bytes = scratch.writer.data();  // keep writer capacity
            (*job.save)(g, std::move(bytes));
          }
          analyze_series_into(scratch, scratch.series, group, im.thresholds,
                              im.comparison, im.classifier_config, part);
        };
        if (slot.split != kWhole) {
          // Only the task that finishes the group's last chunk goes on.
          if (splits[slot.split].ingest_chunk(scratch, im.generator, group,
                                              im.goodput, task.chunk)) {
            finish_cold();
          }
          return;
        }
        const GroupBlobRef b = job.blob ? job.blob(g) : GroupBlobRef{};
        if (!b.empty()) {
          ByteReader r(b.data, b.size);
          if (load_group_series(r, scratch.series, &scratch.pool) &&
              r.remaining() == 0) {
            from_blob[slot.part] = 1;
            analyze_series_into(scratch, scratch.series, group, im.thresholds,
                                im.comparison, im.classifier_config, part);
            return;
          }
          // Unusable blob: fall through to cold ingest for this group.
        }
        ingest_group(scratch, im.generator, group, im.goodput, im.faults,
                     part.res.faults);
        finish_cold();
      },
      stats);
  // The determinism rule: every reducer folds its own partials in
  // ascending group-id order, always. A spliced slot folds its source's
  // partial, a lost slot only its abort counters. Those three are the only
  // fault counters `stats` gets; the sampler and agg counters stay in the
  // result.
  for (const Slot& slot : slots) {
    Impl& im = *jobs[slot.job].reducer->impl_;
    if (slot.spliced) {
      im.total.merge(*slot.spliced);
      continue;
    }
    const int aborts = aborted[slot.part];
    if (aborts > 0) {
      const bool lost = aborts == im.faults.task_max_attempts;
      FaultCounters abort_counts;
      abort_counts.task_aborts = static_cast<std::uint64_t>(aborts);
      abort_counts.task_retries = static_cast<std::uint64_t>(aborts - lost);
      abort_counts.lost_groups = lost;
      im.total.res.faults.accumulate(abort_counts);
      if (stats) stats->faults.accumulate(abort_counts);
      if (lost) continue;
    }
    EdgePartial& part = partials[slot.part];
    im.total.merge(part);
    im.blob_groups += from_blob[slot.part];
    if (!im.kept.empty()) im.kept[slot.group] = std::make_unique<EdgePartial>(std::move(part));
  }
}

std::uint64_t EdgeReducer::blob_groups() const { return impl_->blob_groups; }

EdgeAnalysisResult EdgeReducer::finish() {
  return finalize_edge_result(std::move(impl_->total));
}

void ingest_groups_to_blobs(
    const World& world, const DatasetConfig& config, GoodputConfig goodput,
    const std::vector<std::size_t>& groups, const RuntimeOptions& runtime,
    const std::function<void(std::size_t group, std::string&& blob)>& sink,
    RunStats* stats, std::size_t chunk_groups) {
  FBEDGE_EXPECT(chunk_groups >= 1, "ingest chunk must hold at least one group");
  DatasetGenerator generator(world, config);
  const FaultPlan no_faults;
  for (std::size_t at = 0; at < groups.size(); at += chunk_groups) {
    const std::size_t n = std::min(chunk_groups, groups.size() - at);
    auto blobs = parallel_map_scratch<EdgeScratch>(
        n, runtime,
        [&](EdgeScratch& scratch, std::size_t i) {
          const std::size_t g = groups[at + i];
          FBEDGE_EXPECT(g < world.groups.size(),
                        "ingest group id exceeds the world's group count");
          FaultCounters none;
          ingest_group(scratch, generator, world.groups[g], goodput, no_faults,
                       none);
          scratch.writer.clear();
          save_group_series(scratch.series, scratch.writer);
          return std::string(scratch.writer.data());
        },
        stats);
    for (std::size_t i = 0; i < n; ++i) sink(groups[at + i], std::move(blobs[i]));
  }
}

EdgeAnalysisResult run_edge_analysis(const World& world, const DatasetConfig& config,
                                     const AnalysisThresholds& thresholds,
                                     const ComparisonConfig& comparison,
                                     GoodputConfig goodput,
                                     const RuntimeOptions& runtime,
                                     RunStats* stats, const FaultPlan& faults,
                                     const IngestCacheOptions& cache,
                                     const ScenarioPack& scenario) {
  // Scenario runs recurse with the perturbed world and an empty pack; the
  // scenario-free path below is exactly the pre-scenario code, so an empty
  // pack is byte-identical to a build without the subsystem.
  if (!scenario.empty()) {
    FaultCounters applied;
    const World perturbed = apply_scenario(world, scenario, &applied);
    EdgeAnalysisResult out =
        run_edge_analysis(perturbed, config, thresholds, comparison, goodput,
                          runtime, stats, faults, cache);
    out.faults.accumulate(applied);
    if (stats) stats->faults.accumulate(applied);
    return out;
  }

  // One EdgeReducer pass over [0, n) for every fault plan: per-worker
  // EdgeScratch arenas persist across every group a worker processes, and
  // partials fold in group-id order — the result does not depend on the
  // thread count. Task aborts, when the plan has them, are drawn inside
  // the pass (EdgeReducer::reduce_all), so a lost group is a slot that
  // folds nothing. Cache plumbing rides the same schedule
  // (EdgeReducer::reduce_world).
  EdgeReducer reducer(world, config, thresholds, comparison, goodput, faults);
  reducer.reduce_world(runtime, stats, cache);
  return reducer.finish();
}

}  // namespace fbedge
