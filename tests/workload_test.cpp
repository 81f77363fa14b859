// Tests for the synthetic-world substrate: calibrated distributions,
// world construction invariants, path-condition processes, and the
// session generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "routing/policy.h"
#include "sampler/coalescer.h"
#include "scenario/scenario.h"
#include "util/binio.h"
#include "workload/distributions.h"
#include "workload/generator.h"
#include "workload/world.h"

namespace fbedge {
namespace {

// ---------------------------------------------------------------------------
// PiecewiseCdfSampler.
// ---------------------------------------------------------------------------

TEST(PiecewiseCdf, QuantileHitsControlPoints) {
  PiecewiseCdfSampler s({{1.0, 0.0}, {10.0, 0.5}, {100.0, 1.0}});
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  // Geometric interpolation: q=0.25 is sqrt(1*10).
  EXPECT_NEAR(s.quantile(0.25), std::sqrt(10.0), 1e-9);
}

TEST(PiecewiseCdf, SamplesMatchTargetFractions) {
  PiecewiseCdfSampler s({{1.0, 0.0}, {10.0, 0.3}, {100.0, 0.9}, {1000.0, 1.0}});
  Rng rng(1);
  int below10 = 0, below100 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = s.sample(rng);
    if (v <= 10.0) ++below10;
    if (v <= 100.0) ++below100;
  }
  EXPECT_NEAR(below10 / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(below100 / static_cast<double>(n), 0.9, 0.01);
}

// ---------------------------------------------------------------------------
// TrafficModel: shape checks against the paper's Figures 1-3.
// ---------------------------------------------------------------------------

class TrafficModelShape : public ::testing::Test {
 protected:
  TrafficModel model{1};
  Rng rng{2};
};

TEST_F(TrafficModelShape, SessionDurationsMatchFigure1a) {
  int n = 40000, under_1s = 0, under_60s = 0, over_180s = 0;
  for (int i = 0; i < n; ++i) {
    const HttpVersion v = model.sample_version(rng);
    const Duration d = model.sample_duration(v, rng);
    if (d < 1) ++under_1s;
    if (d < 60) ++under_60s;
    if (d > 180) ++over_180s;
  }
  EXPECT_NEAR(under_1s / double(n), 0.074, 0.02);   // 7.4% < 1 s
  EXPECT_NEAR(under_60s / double(n), 0.33, 0.04);   // 33% < 60 s
  EXPECT_NEAR(over_180s / double(n), 0.20, 0.04);   // 20% > 3 min
}

TEST_F(TrafficModelShape, Http1HasMoreShortSessionsThanHttp2) {
  int n = 30000, h1_under60 = 0, h2_under60 = 0;
  for (int i = 0; i < n; ++i) {
    if (model.sample_duration(HttpVersion::kHttp1_1, rng) < 60) ++h1_under60;
    if (model.sample_duration(HttpVersion::kHttp2, rng) < 60) ++h2_under60;
  }
  EXPECT_NEAR(h1_under60 / double(n), 0.44, 0.03);  // paper: 44%
  EXPECT_NEAR(h2_under60 / double(n), 0.26, 0.03);  // paper: 26%
}

TEST_F(TrafficModelShape, ResponseSizesMatchFigure2) {
  int n = 40000, dyn_under_6k = 0;
  std::vector<double> media;
  for (int i = 0; i < n; ++i) {
    if (model.sample_response_size(EndpointClass::kDynamic, rng) < 6000) ++dyn_under_6k;
    media.push_back(
        static_cast<double>(model.sample_response_size(EndpointClass::kMedia, rng)));
  }
  // Dynamic endpoints sit above the overall target so that the media mix
  // brings the blended share to the paper's "~50% of responses < 6 KB".
  EXPECT_NEAR(dyn_under_6k / double(n), 0.63, 0.03);
  std::sort(media.begin(), media.end());
  EXPECT_NEAR(media[media.size() / 2], 19000, 3000);  // media median ~19 KB
  const auto over_100k = media.end() - std::lower_bound(media.begin(), media.end(), 1e5);
  EXPECT_NEAR(over_100k / double(n), 0.17, 0.03);     // 17% >= 100 KB
}

TEST_F(TrafficModelShape, TransactionCountsMatchFigure3) {
  int n = 30000, h1_under5 = 0, h2_under5 = 0;
  for (int i = 0; i < n; ++i) {
    if (model.sample_txn_count(HttpVersion::kHttp1_1, rng) < 5) ++h1_under5;
    if (model.sample_txn_count(HttpVersion::kHttp2, rng) < 5) ++h2_under5;
  }
  EXPECT_NEAR(h1_under5 / double(n), 0.87, 0.04);
  EXPECT_NEAR(h2_under5 / double(n), 0.75, 0.04);
}

TEST_F(TrafficModelShape, MakeSessionIsWellFormed) {
  for (int i = 0; i < 2000; ++i) {
    const auto spec = model.make_session(SessionId{static_cast<std::uint64_t>(i)}, rng);
    ASSERT_GE(spec.transactions.size(), 1u);
    EXPECT_GT(spec.duration, 0);
    Duration prev = -1;
    for (const auto& t : spec.transactions) {
      EXPECT_GT(t.response_bytes, 0);
      EXPECT_GE(t.at, prev);  // nondecreasing arrivals
      prev = t.at;
    }
    EXPECT_LE(spec.transactions.back().at, spec.duration);
  }
}

// ---------------------------------------------------------------------------
// World construction.
// ---------------------------------------------------------------------------

class WorldTest : public ::testing::Test {
 protected:
  World world = build_world({.seed = 5, .groups_per_continent = 30});
};

TEST_F(WorldTest, GroupCountsAndPops) {
  EXPECT_EQ(world.groups.size(), 6u * 30u);
  EXPECT_EQ(world.pops.size(), 12u);
}

TEST_F(WorldTest, RoutesAreRankedByPolicy) {
  for (const auto& g : world.groups) {
    ASSERT_GE(g.routes.size(), 2u);
    for (std::size_t i = 1; i < g.routes.size(); ++i) {
      EXPECT_LE(RoutingPolicy::compare(g.routes[i - 1].route, g.routes[i].route), 0)
          << "group routes must be in policy order";
    }
  }
}

TEST_F(WorldTest, PrefixesAreDisjoint) {
  std::set<std::uint32_t> addrs;
  for (const auto& g : world.groups) {
    EXPECT_TRUE(addrs.insert(g.key.prefix.addr).second);
    EXPECT_GE(g.key.prefix.length, 16);
    EXPECT_LE(g.key.prefix.length, 22);
  }
}

TEST_F(WorldTest, ContinentRttOrdering) {
  // AF/AS medians should exceed EU/NA medians (per Fig. 6(b)).
  auto median_rtt = [&](Continent c) {
    std::vector<double> v;
    for (const auto& g : world.groups) {
      if (g.continent == c) v.push_back(g.base_rtt);
    }
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  EXPECT_GT(median_rtt(Continent::kAfrica), median_rtt(Continent::kEurope));
  EXPECT_GT(median_rtt(Continent::kAsia), median_rtt(Continent::kNorthAmerica));
}

TEST_F(WorldTest, NonHdFractionsFollowContinentCalibration) {
  auto mean_nonhd = [&](Continent c) {
    double sum = 0;
    int n = 0;
    for (const auto& g : world.groups) {
      if (g.continent == c) {
        sum += g.non_hd_fraction;
        ++n;
      }
    }
    return sum / n;
  };
  EXPECT_GT(mean_nonhd(Continent::kAfrica), 0.18);
  EXPECT_LT(mean_nonhd(Continent::kNorthAmerica), 0.12);
  EXPECT_GT(mean_nonhd(Continent::kAfrica), mean_nonhd(Continent::kEurope));
}

TEST_F(WorldTest, DeterministicForSameSeed) {
  const World again = build_world({.seed = 5, .groups_per_continent = 30});
  ASSERT_EQ(again.groups.size(), world.groups.size());
  for (std::size_t i = 0; i < world.groups.size(); ++i) {
    EXPECT_EQ(again.groups[i].base_rtt, world.groups[i].base_rtt);
    EXPECT_EQ(again.groups[i].routes.size(), world.groups[i].routes.size());
  }
}

// ---------------------------------------------------------------------------
// Path conditions.
// ---------------------------------------------------------------------------

TEST(PathConditions, PeakHoursFollowTimezone) {
  UserGroupProfile g;
  g.tz_offset_hours = 0;
  g.routes.resize(1);
  EXPECT_FALSE(in_peak_hours(g, 12 * 3600.0));
  EXPECT_TRUE(in_peak_hours(g, 20 * 3600.0));
  g.tz_offset_hours = 8;  // 12:00 UTC = 20:00 local
  EXPECT_TRUE(in_peak_hours(g, 12 * 3600.0));
}

TEST(PathConditions, DestCongestionHitsAllRoutesAtPeak) {
  UserGroupProfile g;
  g.base_rtt = 0.040;
  g.tz_offset_hours = 0;
  g.dest_diurnal = true;
  g.dest_peak_delay = 0.020;
  g.dest_peak_loss = 0.01;
  g.routes.resize(2);
  for (int r = 0; r < 2; ++r) {
    const auto off = path_conditions(g, r, 12 * 3600.0, 10e6);
    const auto peak = path_conditions(g, r, 20 * 3600.0, 10e6);
    EXPECT_NEAR(peak.min_rtt - off.min_rtt, 0.020, 1e-9);
    EXPECT_GT(peak.loss_rate, off.loss_rate);
  }
}

TEST(PathConditions, RouteCongestionHitsOnlyThatRoute) {
  UserGroupProfile g;
  g.base_rtt = 0.040;
  g.routes.resize(2);
  g.routes[0].diurnal_congestion = true;
  g.routes[0].peak_extra_delay = 0.015;
  const auto pref = path_conditions(g, 0, 20 * 3600.0, 10e6);
  const auto alt = path_conditions(g, 1, 20 * 3600.0, 10e6);
  EXPECT_GT(pref.min_rtt, alt.min_rtt + 0.010);
}

TEST(PathConditions, EpisodeAppliesOnlyDuringItsWindows) {
  UserGroupProfile g;
  g.base_rtt = 0.040;
  g.routes.resize(1);
  g.episodes.push_back({.start_window = 10, .end_window = 12, .route_index = -1,
                        .extra_delay = 0.030, .extra_loss = 0.01});
  const auto inside = path_conditions(g, 0, 10 * kWindowLength + 1, 10e6);
  const auto outside = path_conditions(g, 0, 12 * kWindowLength + 1, 10e6);
  EXPECT_NEAR(inside.min_rtt - outside.min_rtt, 0.030, 1e-9);
}

TEST(PathConditions, ClientRateCapsBottleneck) {
  UserGroupProfile g;
  g.base_rtt = 0.040;
  g.routes.resize(1);
  g.routes[0].capacity = 100e6;
  EXPECT_DOUBLE_EQ(path_conditions(g, 0, 0, 1.5e6).bottleneck, 1.5e6);
  EXPECT_DOUBLE_EQ(path_conditions(g, 0, 0, 500e6).bottleneck, 100e6);
}

TEST(ClientRate, NonHdFractionRespected) {
  UserGroupProfile g;
  g.non_hd_fraction = 0.36;
  Rng rng(9);
  int non_hd = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (draw_client_rate(g, rng) < 2.5e6) ++non_hd;
  }
  EXPECT_NEAR(non_hd / double(n), 0.36, 0.02);
}

// ---------------------------------------------------------------------------
// DatasetGenerator.
// ---------------------------------------------------------------------------

class GeneratorTest : public ::testing::Test {
 protected:
  World world = build_world({.seed = 8, .groups_per_continent = 2});
  DatasetConfig config = make_config();

  static DatasetConfig make_config() {
    DatasetConfig dc;
    dc.seed = 8;
    dc.days = 1;
    dc.session_scale = 0.05;
    return dc;
  }
};

TEST_F(GeneratorTest, SessionsAreWellFormed) {
  DatasetGenerator gen(world, config);
  int sessions = 0;
  gen.generate_group(world.groups[0], [&](const SessionSample& s) {
    ++sessions;
    EXPECT_GT(s.min_rtt, 0);
    EXPECT_GT(s.duration, 0);
    EXPECT_LE(s.busy_time, s.duration + 1e-9);
    EXPECT_GE(s.num_transactions, 1);
    EXPECT_EQ(s.writes.size(), static_cast<std::size_t>(s.num_transactions));
    EXPECT_GE(s.route_index, 0);
    EXPECT_LT(s.route_index, static_cast<int>(world.groups[0].routes.size()));
    SimTime prev = -1;
    Bytes total = 0;
    for (const auto& w : s.writes) {
      EXPECT_GE(w.first_byte_nic, prev);
      prev = w.first_byte_nic;
      EXPECT_GE(w.second_last_ack, w.first_byte_nic);
      EXPECT_GE(w.last_ack, w.second_last_ack);
      EXPECT_GT(w.wnic, 0);
      total += w.bytes;
    }
    EXPECT_EQ(total, s.total_bytes);
  });
  EXPECT_GT(sessions, 20);
}

TEST_F(GeneratorTest, DeterministicPerGroup) {
  DatasetGenerator gen(world, config);
  std::vector<Duration> run1, run2;
  gen.generate_group(world.groups[1],
                     [&](const SessionSample& s) { run1.push_back(s.min_rtt); });
  gen.generate_group(world.groups[1],
                     [&](const SessionSample& s) { run2.push_back(s.min_rtt); });
  EXPECT_EQ(run1, run2);
}

TEST_F(GeneratorTest, MinRttReflectsGroupBaseRtt) {
  DatasetConfig cfg = config;
  cfg.bufferbloat_fraction = 0;  // exclude the §3.3 tail for the bound check
  DatasetGenerator gen(world, cfg);
  const auto& group = world.groups[0];
  gen.generate_group(group, [&](const SessionSample& s) {
    if (s.route_index != 0) return;
    EXPECT_GE(s.min_rtt, group.base_rtt + group.routes[0].rtt_offset - 1e-9);
    EXPECT_LE(s.min_rtt, group.base_rtt + group.routes[0].rtt_offset + 0.12);
  });
}

TEST_F(GeneratorTest, RouteOverrideUsesAlternates) {
  DatasetGenerator gen(world, config);
  std::set<int> routes_seen;
  gen.generate(
      [&](const SessionSample& s) { routes_seen.insert(s.route_index); });
  EXPECT_GE(routes_seen.size(), 2u) << "alternate routes must carry samples";
}

TEST_F(GeneratorTest, Http2OverlapProducesMultiplexFlags) {
  // Overlapping HTTP/2 transactions must surface as multiplexed/preempted
  // writes so the §3.2.5 coalescer has real work on generated traffic.
  DatasetGenerator gen(world, config);
  Rng rng(99);
  SessionSpec spec;
  spec.id = SessionId{1};
  spec.version = HttpVersion::kHttp2;
  spec.duration = 10.0;
  // Three large responses requested in a burst: the 2nd/3rd arrive while
  // the 1st is still in flight; the 3rd is higher priority.
  spec.transactions = {{0.10, 400000, 16}, {0.101, 400000, 16}, {0.102, 400000, 0}};
  const auto& group = world.groups[0];
  const auto sample = gen.run_session(group, spec, 0, 50.0, rng);
  ASSERT_EQ(sample.writes.size(), 3u);
  bool any_flag = false;
  for (const auto& w : sample.writes) any_flag |= (w.multiplexed || w.preempted);
  EXPECT_TRUE(any_flag);
  // The coalescer merges the overlapped run back into one transaction.
  const auto coalesced = coalesce_session(sample.writes, sample.min_rtt);
  EXPECT_EQ(coalesced.txns.size(), 1u);
  EXPECT_EQ(coalesced.coalesced_writes, 2);
}

TEST_F(GeneratorTest, HostingSessionsAppearAtConfiguredRate) {
  DatasetConfig cfg = config;
  cfg.hosting_fraction = 0.1;
  DatasetGenerator gen(world, cfg);
  int hosting = 0, total = 0;
  gen.generate([&](const SessionSample& s) {
    ++total;
    if (s.client.hosting_provider) ++hosting;
  });
  ASSERT_GT(total, 500);
  EXPECT_NEAR(hosting / double(total), 0.1, 0.03);
}

// ---------------------------------------------------------------------------
// Group cursors: the count-only skip and chunked generation.
// ---------------------------------------------------------------------------

/// Every column of row `i` and every one of its writes, bit for bit.
std::uint64_t row_digest(const SessionBatch& b, std::size_t i) {
  Fnv64 h;
  h.u64(b.id[i].value);
  h.u32(b.client_ip[i]);
  h.u8(b.hosting[i]);
  h.u8(static_cast<std::uint8_t>(b.version[i]));
  h.u8(static_cast<std::uint8_t>(b.endpoint[i]));
  h.f64(b.established_at[i]);
  h.f64(b.duration[i]);
  h.f64(b.busy_time[i]);
  h.i64(b.total_bytes[i]);
  h.i64(b.num_transactions[i]);
  h.i64(b.route_index[i]);
  h.f64(b.min_rtt[i]);
  for (std::uint32_t k = 0; k < b.write_count[i]; ++k) {
    const ResponseWrite& w = b.writes[b.write_offset[i] + k];
    h.i64(w.bytes);
    h.i64(w.wnic);
    h.f64(w.first_byte_nic);
    h.f64(w.last_byte_nic);
    h.f64(w.second_last_ack);
    h.f64(w.last_ack);
    h.i64(w.last_packet_bytes);
    h.u8(static_cast<std::uint8_t>(w.preempted));
    h.u8(static_cast<std::uint8_t>(w.multiplexed));
  }
  return h.value();
}

/// Generates `group` whole, then chunk by chunk at `stride` from cursors
/// the count-only skip computes, and checks that (1) the skipped cursor
/// equals the generated one at every cut and at the span's end, (2) the
/// chunked rows are bitwise the whole-group rows, (3) every row of chunk k
/// lands in chunk k's windows, and (4) each cut sits at its stride
/// multiple unless the window before it spilled a row across.
void check_chunked_generation(const DatasetGenerator& gen, const UserGroupProfile& group,
                              int stride) {
  const int total = gen.total_windows();
  SessionBatch batch;
  std::vector<std::uint64_t> whole;
  std::vector<std::uint8_t> spilled(static_cast<std::size_t>(total), 0);
  GroupCursor generated = gen.group_cursor(group);
  gen.generate_windows_batched(group, generated, total, batch,
                               [&](int w, const SessionBatch& b) {
                                 for (std::size_t i = 0; i < b.size(); ++i) {
                                   whole.push_back(row_digest(b, i));
                                   if (window_index(b.established_at[i]) != w) {
                                     spilled[static_cast<std::size_t>(w)] = 1;
                                   }
                                 }
                               });
  ASSERT_FALSE(whole.empty());
  GroupCursor skipped = gen.group_cursor(group);
  gen.skip_windows(group, skipped, total);
  EXPECT_TRUE(skipped == generated) << "whole-span skip";
  EXPECT_EQ(skipped.window, total);

  const auto skip = [&](GroupCursor& c, int end) { gen.skip_windows(group, c, end); };
  std::vector<std::uint64_t> chunked;
  GroupCursor chain = gen.group_cursor(group);  // the skip chain of chunk starts
  int cut = 0;
  for (int k = 0; k * stride < total; ++k) {
    ASSERT_EQ(chain.window, cut) << "chunk " << k;
    const int nominal = std::min((k + 1) * stride, total);
    int lo = total + 1;
    int hi = -1;
    GroupCursor c = chain;
    advance_to_cut(c, nominal, total, [&](GroupCursor& cur, int end) {
      gen.generate_windows_batched(group, cur, end, batch,
                                   [&](int, const SessionBatch& b) {
                                     for (std::size_t i = 0; i < b.size(); ++i) {
                                       chunked.push_back(row_digest(b, i));
                                       lo = std::min(lo, window_index(b.established_at[i]));
                                       hi = std::max(hi, window_index(b.established_at[i]));
                                     }
                                   });
    });
    advance_to_cut(chain, nominal, total, skip);
    EXPECT_TRUE(chain == c) << "skip and generation disagree at chunk " << k;
    const int next = c.window;
    // The cut rule, stated on the whole run's spills.
    int want = std::max(cut, nominal);
    while (want < total && spilled[static_cast<std::size_t>(want - 1)]) ++want;
    EXPECT_EQ(next, want) << "chunk " << k;
    if (hi >= 0) {
      EXPECT_GE(lo, cut) << "chunk " << k;
      // Only the last chunk may hold the row a final-window spill puts
      // past the span.
      EXPECT_LT(hi, next == total ? total + 1 : next) << "chunk " << k;
    }
    cut = next;
  }
  EXPECT_EQ(cut, total);
  EXPECT_TRUE(chain == generated);
  EXPECT_EQ(chunked, whole);
}

std::vector<ScenarioPack> fixture_packs() {
  std::vector<ScenarioPack> packs;
  for (const char* name : {"drain-eu-peak.conf", "depref-3356-flash.conf",
                           "cable-cut-eu-af.conf"}) {
    std::ifstream file(std::string(FBEDGE_TEST_DATA_DIR) + "/scenarios/" + name);
    std::ostringstream text;
    text << file.rdbuf();
    ScenarioParseResult parsed = parse_scenario(text.str());
    EXPECT_TRUE(parsed.ok) << name << ": " << parsed.error;
    packs.push_back(std::move(parsed.pack));
  }
  return packs;
}

// Every group of a 2-groups-per-continent world and of each scenario
// fixture's perturbed world, at 20 session seeds, chunked at an odd
// stride so cuts fall off day boundaries.
TEST(GroupCursor, SkipAndChunksReplayWholeGroupGeneration) {
  const World base = build_world({.seed = 2019, .groups_per_continent = 2, .days = 2});
  std::vector<World> worlds{base};
  for (const ScenarioPack& pack : fixture_packs()) {
    validate_scenario(base, pack);
    worlds.push_back(apply_scenario(base, pack));
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    DatasetConfig dc;
    dc.seed = seed;
    dc.days = 2;
    dc.session_scale = 0.01;
    for (std::size_t wi = 0; wi < worlds.size(); ++wi) {
      const DatasetGenerator gen(worlds[wi], dc);
      for (const UserGroupProfile& group : worlds[wi].groups) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " world " << wi
                                          << " prefix " << group.key.prefix.addr);
        check_chunked_generation(gen, group, 37);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// A start draw that rounds up to the next window is too rare to meet in
// generated data, so the cut rule's spill path runs on a scripted step.
TEST(GroupCursor, CutsMovePastSpillingWindowsOnly) {
  const std::set<int> spills{9, 10, 19, 29};
  int steps = 0;
  const auto step = [&](GroupCursor& c, int end) {
    ++steps;
    for (; c.window < end; ++c.window) c.spill = spills.count(c.window) != 0;
  };
  const int total = 31;
  std::vector<int> cuts;
  GroupCursor c;
  for (int k = 1; (k - 1) * 10 < total; ++k) {
    advance_to_cut(c, std::min(k * 10, total), total, step);
    cuts.push_back(c.window);
  }
  // Windows 9 and 10 spill, so the cut at 10 moves past both to 12; 19
  // spills, so 20 moves to 21; 29 spills, so 30 moves to 31, the span's
  // end, which is also the last chunk's end (an empty chunk).
  EXPECT_EQ(cuts, (std::vector<int>{12, 21, 31, 31}));

  // A cursor at or past the cut stays put: that chunk is empty.
  GroupCursor at;
  at.window = 12;
  steps = 0;
  advance_to_cut(at, 10, total, step);
  EXPECT_EQ(at.window, 12);
  EXPECT_EQ(steps, 0);
}

}  // namespace
}  // namespace fbedge
