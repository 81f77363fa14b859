// Tests for the aggregation layer (§3.3) and the statistical analyzers
// (§3.4): validity control, degradation, opportunity, and temporal
// classification.
#include <gtest/gtest.h>

#include "agg/aggregation.h"
#include "agg/classifier.h"
#include "agg/comparison.h"
#include "agg/degradation.h"
#include "agg/opportunity.h"
#include "agg/window_verdict.h"
#include "util/rng.h"

namespace fbedge {
namespace {

/// Fills a route cell with `n` sessions of noisy MinRTT around `rtt` and
/// HDratio around `hd`.
void fill(RouteWindowAgg& agg, int n, Duration rtt, double hd, std::uint64_t seed,
          Bytes traffic_each = 100000) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const Duration r = std::max(0.001, rtt + rng.normal(0, 0.002));
    const double h = std::clamp(hd + rng.normal(0, 0.08), 0.0, 1.0);
    agg.add_session(r, h, traffic_each);
  }
}

// ---------------------------------------------------------------------------
// Window bookkeeping.
// ---------------------------------------------------------------------------

TEST(Windows, IndexAndSlots) {
  EXPECT_EQ(window_index(0.0), 0);
  EXPECT_EQ(window_index(899.9), 0);
  EXPECT_EQ(window_index(900.0), 1);
  EXPECT_EQ(window_index(1.5 * kDay), 144);
  EXPECT_EQ(window_slot_of_day(97), 1);
  EXPECT_EQ(window_day(97), 1);
}

TEST(Aggregation, MediansAndCounts) {
  RouteWindowAgg agg;
  fill(agg, 200, 0.050, 0.8, 1);
  EXPECT_NEAR(agg.minrtt_p50(), 0.050, 0.002);
  EXPECT_NEAR(agg.hdratio_p50(), 0.8, 0.05);
  EXPECT_EQ(agg.sessions(), 200);
  EXPECT_EQ(agg.hd_sessions(), 200);
  EXPECT_EQ(agg.traffic(), 200 * 100000);
}

TEST(Aggregation, NonTestableSessionsContributeRttOnly) {
  RouteWindowAgg agg;
  agg.add_session(0.030, std::nullopt, 5000);
  agg.add_session(0.030, 1.0, 5000);
  EXPECT_EQ(agg.sessions(), 2);
  EXPECT_EQ(agg.hd_sessions(), 1);
}

TEST(AggregationStore, RoutesBySessionIndex) {
  AggregationStore store;
  UserGroupKey key{PopId{1}, IpPrefix{0x0a000000, 16}, CountryId{1}};
  store.add_session(key, Continent::kEurope, 100.0, 0, 0.030, 0.9, 1000);
  store.add_session(key, Continent::kEurope, 100.0, 2, 0.035, 0.8, 1000);
  ASSERT_EQ(store.group_count(), 1u);
  const auto& series = store.groups().at(key);
  const auto& window = series.windows.at(0);
  EXPECT_EQ(window.routes.size(), 3u);
  EXPECT_EQ(window.route(0)->sessions(), 1);
  EXPECT_EQ(window.route(1)->sessions(), 0);
  EXPECT_EQ(window.route(2)->sessions(), 1);
  EXPECT_EQ(window.total_traffic(), 2000);
}

// ---------------------------------------------------------------------------
// Comparison validity (§3.4.1).
// ---------------------------------------------------------------------------

TEST(Comparison, TooFewSamplesInvalid) {
  RouteWindowAgg a, b;
  fill(a, 10, 0.050, 0.9, 1);
  fill(b, 200, 0.050, 0.9, 2);
  const auto cmp = compare_minrtt(a, b, {});
  EXPECT_EQ(cmp.validity, Validity::kTooFewSamples);
  EXPECT_FALSE(cmp.valid());
  EXPECT_FALSE(cmp.exceeds(0.0));
}

TEST(Comparison, WideCiInvalid) {
  // Huge variance + few samples -> CI wider than 10 ms.
  RouteWindowAgg a, b;
  Rng rng(3);
  for (int i = 0; i < 35; ++i) {
    a.add_session(std::max(0.001, 0.2 + rng.normal(0, 0.2)), 0.5, 1000);
    b.add_session(std::max(0.001, 0.2 + rng.normal(0, 0.2)), 0.5, 1000);
  }
  const auto cmp = compare_minrtt(a, b, {});
  EXPECT_EQ(cmp.validity, Validity::kCiTooWide);
}

TEST(Comparison, DetectsRealRttDifference) {
  RouteWindowAgg a, b;
  fill(a, 300, 0.060, 0.9, 4);
  fill(b, 300, 0.050, 0.9, 5);
  const auto cmp = compare_minrtt(a, b, {});
  ASSERT_TRUE(cmp.valid());
  EXPECT_NEAR(cmp.diff.estimate, 0.010, 0.003);
  EXPECT_TRUE(cmp.exceeds(0.005));
  EXPECT_FALSE(cmp.exceeds(0.020));
}

TEST(Comparison, NoEventOnEqualDistributions) {
  RouteWindowAgg a, b;
  fill(a, 300, 0.050, 0.9, 6);
  fill(b, 300, 0.050, 0.9, 7);
  const auto cmp = compare_minrtt(a, b, {});
  ASSERT_TRUE(cmp.valid());
  EXPECT_FALSE(cmp.exceeds(0.005));
}

// ---------------------------------------------------------------------------
// Degradation (§3.4, §5).
// ---------------------------------------------------------------------------

GroupSeries make_series_with_peak_degradation(int days, Duration base, Duration peak_extra,
                                              std::uint64_t seed) {
  GroupSeries series;
  Rng rng(seed);
  for (int w = 0; w < days * 96; ++w) {
    const int slot = window_slot_of_day(w);
    const bool peak = slot >= 76 && slot < 92;  // 19:00-23:00
    const Duration rtt = base + (peak ? peak_extra : 0.0);
    fill(series.windows[w].route(0), 60, rtt, 0.9, rng());
  }
  return series;
}

TEST(Degradation, BaselineTracksBestWindows) {
  const auto series = make_series_with_peak_degradation(3, 0.040, 0.015, 11);
  const auto result = analyze_degradation(series, {});
  EXPECT_NEAR(result.baseline_minrtt_p50, 0.040, 0.004);
}

TEST(Degradation, PeakWindowsFlaggedOffPeakNot) {
  const auto series = make_series_with_peak_degradation(3, 0.040, 0.015, 12);
  const auto result = analyze_degradation(series, {});
  int peak_events = 0, offpeak_events = 0, peak_windows = 0, offpeak_windows = 0;
  for (const auto& dw : result.windows) {
    if (!dw.rtt.valid()) continue;
    const int slot = window_slot_of_day(dw.window);
    const bool peak = slot >= 76 && slot < 92;
    (peak ? peak_windows : offpeak_windows) += 1;
    if (dw.rtt.exceeds(0.005)) (peak ? peak_events : offpeak_events) += 1;
  }
  ASSERT_GT(peak_windows, 0);
  ASSERT_GT(offpeak_windows, 0);
  EXPECT_GT(peak_events, peak_windows * 0.8);
  EXPECT_LT(offpeak_events, offpeak_windows * 0.1);
}

TEST(Degradation, HdDegradationDirection) {
  GroupSeries series;
  Rng rng(13);
  for (int w = 0; w < 96; ++w) {
    const bool degraded = w >= 48;
    fill(series.windows[w].route(0), 80, 0.040, degraded ? 0.4 : 0.9, rng());
  }
  const auto result = analyze_degradation(series, {});
  EXPECT_NEAR(result.baseline_hdratio_p50, 0.9, 0.08);
  int flagged = 0;
  for (const auto& dw : result.windows) {
    if (dw.window >= 48 && dw.hd.exceeds(0.2)) ++flagged;
  }
  EXPECT_GT(flagged, 40);
}

TEST(Degradation, EmptySeries) {
  GroupSeries series;
  const auto result = analyze_degradation(series, {});
  EXPECT_TRUE(result.windows.empty());
  EXPECT_EQ(result.baseline_rtt_window, -1);
}

// ---------------------------------------------------------------------------
// Opportunity (§3.4, §6).
// ---------------------------------------------------------------------------

TEST(Opportunity, DetectsFasterAlternate) {
  GroupSeries series;
  Rng rng(17);
  for (int w = 0; w < 10; ++w) {
    auto& agg = series.windows[w];
    fill(agg.route(0), 120, 0.060, 0.9, rng());  // preferred, slower
    fill(agg.route(1), 120, 0.048, 0.9, rng());  // alternate, 12 ms faster
  }
  const auto opps = analyze_opportunity(series, {});
  ASSERT_EQ(opps.size(), 10u);
  for (const auto& ow : opps) {
    ASSERT_TRUE(ow.rtt.valid());
    EXPECT_TRUE(ow.rtt_opportunity(0.005)) << "window " << ow.window;
    EXPECT_EQ(ow.rtt_alternate, 1);
  }
}

TEST(Opportunity, HdGuardBlocksRttOpportunity) {
  // Alternate is 12 ms faster but much worse for HDratio: the guard must
  // suppress the MinRTT opportunity (§3.4).
  GroupSeries series;
  Rng rng(19);
  for (int w = 0; w < 5; ++w) {
    auto& agg = series.windows[w];
    fill(agg.route(0), 120, 0.060, 0.95, rng());
    fill(agg.route(1), 120, 0.048, 0.30, rng());
  }
  const auto opps = analyze_opportunity(series, {});
  for (const auto& ow : opps) {
    ASSERT_TRUE(ow.rtt.valid());
    EXPECT_TRUE(ow.rtt.exceeds(0.005));          // raw RTT difference exists
    EXPECT_FALSE(ow.rtt_opportunity(0.005));     // but the guard rejects it
  }
}

TEST(Opportunity, PreferredBetterMeansNoOpportunity) {
  GroupSeries series;
  Rng rng(23);
  for (int w = 0; w < 5; ++w) {
    auto& agg = series.windows[w];
    fill(agg.route(0), 120, 0.040, 0.9, rng());
    fill(agg.route(1), 120, 0.055, 0.9, rng());
  }
  for (const auto& ow : analyze_opportunity(series, {})) {
    EXPECT_FALSE(ow.rtt_opportunity(0.005));
    EXPECT_FALSE(ow.hd_opportunity(0.05));
    EXPECT_LT(ow.rtt.diff.estimate, 0);  // skewed toward preferred
  }
}

TEST(Opportunity, HdOpportunityDetected) {
  GroupSeries series;
  Rng rng(29);
  for (int w = 0; w < 5; ++w) {
    auto& agg = series.windows[w];
    fill(agg.route(0), 150, 0.050, 0.5, rng());
    fill(agg.route(1), 150, 0.050, 0.9, rng());
  }
  for (const auto& ow : analyze_opportunity(series, {})) {
    ASSERT_TRUE(ow.hd.valid());
    EXPECT_TRUE(ow.hd_opportunity(0.05));
  }
}

TEST(Opportunity, PicksBestAmongMultipleAlternates) {
  GroupSeries series;
  Rng rng(31);
  auto& agg = series.windows[0];
  fill(agg.route(0), 150, 0.060, 0.9, rng());
  fill(agg.route(1), 150, 0.055, 0.9, rng());
  fill(agg.route(2), 150, 0.045, 0.9, rng());  // the best alternate
  const auto opps = analyze_opportunity(series, {});
  ASSERT_EQ(opps.size(), 1u);
  EXPECT_EQ(opps[0].rtt_alternate, 2);
}

TEST(Opportunity, SingleRouteGroupsSkipped) {
  GroupSeries series;
  fill(series.windows[0].route(0), 100, 0.050, 0.9, 37);
  EXPECT_TRUE(analyze_opportunity(series, {}).empty());
}

// ---------------------------------------------------------------------------
// Online verdicts: RollingBaseline + evaluate_window_verdict, the step every
// sealed stream window takes. An "alert" is a degradation comparison whose
// CI lower bound clears the VerdictPolicy threshold.
// ---------------------------------------------------------------------------

RouteWindowAgg make_cell(Duration rtt, double hd, std::uint64_t seed, int n = 80) {
  RouteWindowAgg agg;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    agg.add_session(std::max(0.001, rtt + rng.normal(0, 0.002)),
                    std::clamp(hd + rng.normal(0, 0.05), 0.0, 1.0), 1000);
  }
  return agg;
}

/// One group's online verdict loop: seals windows whose preferred route is
/// `pref` and counts the alerts they raise.
struct OnlineVerdicts {
  explicit OnlineVerdicts(RollingBaseline::Config config = {}) : baseline(config) {}

  void seal(int window, const RouteWindowAgg& pref) {
    WindowAgg agg;
    agg.routes.push_back(pref);
    seal(window, agg);
  }

  void seal(int window, const WindowAgg& agg) {
    evaluate_window_verdict(window, agg, baseline, ComparisonConfig{}, verdict);
    rtt_alert = verdict.degr.rtt.exceeds(policy.degradation_rtt);
    hd_alert = verdict.degr.hd.exceeds(policy.degradation_hd);
    if (rtt_alert || hd_alert) ++alerts;
  }

  const RouteWindowAgg* baseline_rtt() const { return baseline.baseline_rtt(); }

  RollingBaseline baseline;
  VerdictPolicy policy;
  WindowVerdict verdict;
  bool rtt_alert{false};
  bool hd_alert{false};
  int alerts{0};
};

TEST(OnlineVerdict, NoAlertsDuringWarmup) {
  OnlineVerdicts online;
  for (int w = 0; w < 5; ++w) online.seal(w, make_cell(0.040, 0.9, w));
  EXPECT_EQ(online.alerts, 0);
  EXPECT_EQ(online.baseline_rtt(), nullptr);
  EXPECT_EQ(online.verdict.degr.rtt.validity, Validity::kMissing);
}

TEST(OnlineVerdict, AlertsOnRttJumpAfterWarmup) {
  OnlineVerdicts online;
  for (int w = 0; w < 20; ++w) online.seal(w, make_cell(0.040, 0.9, w));
  ASSERT_NE(online.baseline_rtt(), nullptr);
  EXPECT_NEAR(online.baseline_rtt()->minrtt_p50(), 0.040, 0.003);
  EXPECT_EQ(online.alerts, 0) << "steady state must be quiet";

  online.seal(20, make_cell(0.060, 0.9, 20));
  EXPECT_EQ(online.alerts, 1);
  EXPECT_EQ(online.verdict.window, 20);
  EXPECT_TRUE(online.rtt_alert);
  EXPECT_GT(online.verdict.degr.rtt.diff.lower, 0.005);
  EXPECT_FALSE(online.hd_alert);
}

TEST(OnlineVerdict, AlertsOnHdDropIndependently) {
  OnlineVerdicts online;
  for (int w = 0; w < 20; ++w) online.seal(w, make_cell(0.040, 0.9, w));
  online.seal(20, make_cell(0.040, 0.4, 20));
  EXPECT_EQ(online.alerts, 1);
  EXPECT_TRUE(online.hd_alert);
  EXPECT_FALSE(online.rtt_alert);
}

TEST(OnlineVerdict, HistoryBounded) {
  RollingBaseline::Config config;
  config.history_windows = 10;
  OnlineVerdicts online(config);
  for (int w = 0; w < 50; ++w) online.seal(w, make_cell(0.040, 0.9, w));
  EXPECT_EQ(online.baseline.history_size(), 10);
}

TEST(OnlineVerdict, PersistentShiftBecomesNewBaseline) {
  RollingBaseline::Config config;
  config.history_windows = 12;
  OnlineVerdicts online(config);
  for (int w = 0; w < 20; ++w) online.seal(w, make_cell(0.040, 0.9, w));
  // A step change alerts while old windows linger in the history...
  for (int w = 20; w < 40; ++w) online.seal(w, make_cell(0.060, 0.9, w));
  EXPECT_GT(online.alerts, 0);
  const int alerts_during_rollover = online.alerts;
  // ...but once the 12-window history is all post-step, 60 ms is the new
  // normal and alerts stop.
  ASSERT_NE(online.baseline_rtt(), nullptr);
  EXPECT_NEAR(online.baseline_rtt()->minrtt_p50(), 0.060, 0.003);
  for (int w = 40; w < 60; ++w) online.seal(w, make_cell(0.060, 0.9, w));
  EXPECT_EQ(online.alerts, alerts_during_rollover) << "no alerts once re-baselined";
}

TEST(OnlineVerdict, ThinWindowsCannotFormABaseline) {
  OnlineVerdicts online;
  RouteWindowAgg tiny;
  tiny.add_session(0.040, 0.9, 100);
  for (int w = 0; w < 30; ++w) online.seal(w, tiny);
  EXPECT_EQ(online.baseline_rtt(), nullptr)
      << "windows below the sample floor cannot form a baseline";
  EXPECT_EQ(online.alerts, 0);
}

TEST(OnlineVerdict, EmptyWindowsStayOutOfHistory) {
  OnlineVerdicts online;
  online.seal(0, RouteWindowAgg{});  // preferred cell present but empty
  online.seal(1, WindowAgg{});       // no preferred cell at all
  EXPECT_EQ(online.baseline.history_size(), 0);
  EXPECT_EQ(online.verdict.window, 1);
  EXPECT_EQ(online.verdict.degr.rtt.validity, Validity::kMissing);
  EXPECT_EQ(online.verdict.degr.hd.validity, Validity::kMissing);

  RouteWindowAgg filled;
  filled.add_session(0.05, 1.0, 1000);
  online.seal(2, filled);
  EXPECT_EQ(online.baseline.history_size(), 1);
  EXPECT_EQ(online.alerts, 0);
}

// ---------------------------------------------------------------------------
// Temporal classification (§3.4.2).
// ---------------------------------------------------------------------------

std::vector<WindowObservation> make_observations(int days, double coverage,
                                                 const std::function<bool(int)>& event) {
  std::vector<WindowObservation> obs;
  const int total = days * 96;
  for (int w = 0; w < total; ++w) {
    if (static_cast<double>(w % 100) >= coverage * 100) continue;
    WindowObservation o;
    o.window = w;
    o.has_traffic = true;
    o.valid = true;
    o.event = event(w);
    o.traffic = 1000;
    obs.push_back(o);
  }
  return obs;
}

ClassifierConfig config_for(int days) {
  ClassifierConfig c;
  c.total_windows = days * 96;
  return c;
}

TEST(Classifier, LowCoverageExcluded) {
  const auto obs = make_observations(10, 0.4, [](int) { return false; });
  EXPECT_EQ(classify_temporal(obs, config_for(10)).cls, TemporalClass::kExcluded);
}

TEST(Classifier, NoEventsUneventful) {
  const auto obs = make_observations(10, 1.0, [](int) { return false; });
  const auto c = classify_temporal(obs, config_for(10));
  EXPECT_EQ(c.cls, TemporalClass::kUneventful);
  EXPECT_EQ(c.event_traffic, 0);
}

TEST(Classifier, AlwaysOnContinuous) {
  const auto obs = make_observations(10, 1.0, [](int) { return true; });
  const auto c = classify_temporal(obs, config_for(10));
  EXPECT_EQ(c.cls, TemporalClass::kContinuous);
  EXPECT_EQ(c.event_traffic, c.total_traffic);
}

TEST(Classifier, EightyPercentIsStillContinuous) {
  const auto obs = make_observations(10, 1.0, [](int w) { return w % 5 != 0; });
  EXPECT_EQ(classify_temporal(obs, config_for(10)).cls, TemporalClass::kContinuous);
}

TEST(Classifier, PeakHourPatternIsDiurnal) {
  // Same 8 slots every day for all 10 days.
  const auto obs = make_observations(10, 1.0, [](int w) {
    const int slot = window_slot_of_day(w);
    return slot >= 80 && slot < 88;
  });
  EXPECT_EQ(classify_temporal(obs, config_for(10)).cls, TemporalClass::kDiurnal);
}

TEST(Classifier, FourDayRepetitionIsNotDiurnal) {
  // Repeats on only 4 days (< diurnal_days = 5) -> episodic.
  const auto obs = make_observations(10, 1.0, [](int w) {
    return window_day(w) < 4 && window_slot_of_day(w) == 40;
  });
  EXPECT_EQ(classify_temporal(obs, config_for(10)).cls, TemporalClass::kEpisodic);
}

TEST(Classifier, OneBurstIsEpisodic) {
  const auto obs = make_observations(10, 1.0, [](int w) { return w >= 200 && w < 208; });
  const auto c = classify_temporal(obs, config_for(10));
  EXPECT_EQ(c.cls, TemporalClass::kEpisodic);
  EXPECT_EQ(c.event_windows, 8);
  EXPECT_EQ(c.event_traffic, 8 * 1000);
}

TEST(Classifier, ClassPrecedenceContinuousBeforeDiurnal) {
  // Events everywhere *and* in fixed slots: continuous wins (checked first).
  const auto obs = make_observations(10, 1.0, [](int) { return true; });
  EXPECT_EQ(classify_temporal(obs, config_for(10)).cls, TemporalClass::kContinuous);
}

}  // namespace
}  // namespace fbedge
