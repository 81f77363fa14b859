// Serialization coverage for the ingest-artifact cache: bitwise round-trip
// properties for the binio primitives, TDigest, and GroupSeries; rejection
// of truncated / corrupted / wrong-epoch artifacts (always a clean miss,
// never a crash); and end-to-end warm == cold equivalence through
// run_edge_analysis, including the corruption fallback path.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "agg/series_io.h"
#include "analysis/edge_analysis.h"
#include "analysis/ingest_cache.h"
#include "util/binio.h"
#include "util/rng.h"

namespace fbedge {
namespace {

// ---------------------------------------------------------------------------
// binio primitives.
// ---------------------------------------------------------------------------

TEST(BinIo, F64PayloadsRoundTripBitwise) {
  const std::uint64_t patterns[] = {
      0x7ff8000000000000ULL,  // quiet NaN
      0x7ff8deadbeef1234ULL,  // NaN with payload bits
      0xfff0000000000000ULL,  // -inf
      0x7ff0000000000000ULL,  // +inf
      0x8000000000000000ULL,  // -0.0
      0x0000000000000001ULL,  // smallest denormal
      0x3ff0000000000000ULL,  // 1.0
  };
  ByteWriter w;
  for (const std::uint64_t bits : patterns) w.f64(std::bit_cast<double>(bits));
  ByteReader r(w.data().data(), w.size());
  for (const std::uint64_t bits : patterns) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), bits);
  }
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinIo, ReaderLatchesOnOverrunAndReturnsZeros) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.data().data(), w.size());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // overrun
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // latched: everything after reads zero
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BinIo, FastAppendsMatchPerByteEncoding) {
  // The block-append u32/u64 paths must emit exactly the bytes the original
  // per-byte push_back encoder did — little-endian, low byte first — or
  // every committed ingest artifact would silently change.
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t v =
        static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 62)) * 3u;
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(v));
    w.u64(v);
    std::string ref;
    for (int i = 0; i < 4; ++i) ref.push_back(static_cast<char>(v >> (8 * i)));
    for (int i = 0; i < 8; ++i) ref.push_back(static_cast<char>(v >> (8 * i)));
    ASSERT_EQ(w.data(), ref);
  }
}

// ---------------------------------------------------------------------------
// TDigest round-trips.
// ---------------------------------------------------------------------------

std::string digest_bytes(const TDigest& d) {
  ByteWriter w;
  d.save(w);
  return w.take();
}

void expect_digest_roundtrip_bitwise(const TDigest& d) {
  const std::string bytes = digest_bytes(d);
  TDigest loaded(37.0);  // different compression: load must overwrite it
  ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(loaded.load(r));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  // Strongest check first: the loaded state re-serializes byte-identically,
  // so every field (incl. NaN/inf min-max payloads) survived verbatim.
  EXPECT_EQ(digest_bytes(loaded), bytes);
  EXPECT_EQ(loaded.count(), d.count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.total_weight()),
            std::bit_cast<std::uint64_t>(d.total_weight()));
  if (!d.empty()) {
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.quantile(q)),
                std::bit_cast<std::uint64_t>(d.quantile(q)))
          << "q=" << q;
    }
  }
}

TEST(TDigestIo, RandomDigestsRoundTripBitwise) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    TDigest d;
    const int n = static_cast<int>(rng.uniform_int(1, 4000));
    for (int i = 0; i < n; ++i) d.add(rng.lognormal(0, 1.2), rng.uniform(0.5, 3));
    expect_digest_roundtrip_bitwise(d);
  }
}

TEST(TDigestIo, EmptyDigestRoundTrips) {
  // An empty digest carries min = +inf, max = -inf — the non-finite fields
  // must travel as raw bit patterns.
  expect_digest_roundtrip_bitwise(TDigest(100.0));
}

TEST(TDigestIo, NegativeZeroRoundTrips) {
  TDigest d;
  for (int i = 0; i < 50; ++i) d.add(i % 2 == 0 ? -0.0 : 0.0);
  expect_digest_roundtrip_bitwise(d);
}

TEST(TDigestIo, DuplicateHeavyCentroidsRoundTripBitwise) {
  TDigest d;
  for (int i = 0; i < 10000; ++i) d.add(0.042);
  for (int i = 0; i < 7; ++i) d.add(0.001 * i);
  expect_digest_roundtrip_bitwise(d);
}

TEST(TDigestIo, TruncatedInputFailsCleanly) {
  TDigest d;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) d.add(rng.uniform(0, 1));
  const std::string bytes = digest_bytes(d);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    TDigest target;
    ByteReader r(bytes.data(), len);
    EXPECT_FALSE(target.load(r)) << "prefix of " << len << " bytes";
    EXPECT_TRUE(target.empty());  // failed load leaves the digest reset
  }
}

TEST(TDigestIo, GarbageInputFailsCleanly) {
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk(rng.uniform_int(0, 256), '\0');
    for (char& c : junk) c = static_cast<char>(rng.uniform_int(0, 255));
    TDigest target;
    ByteReader r(junk.data(), junk.size());
    target.load(r);  // must not crash; success is allowed only if ok()
  }
}

// ---------------------------------------------------------------------------
// GroupSeries round-trips.
// ---------------------------------------------------------------------------

GroupSeries make_series(std::uint64_t seed) {
  Rng rng(seed);
  GroupSeries series;
  series.continent = Continent::kSouthAmerica;
  for (const int w : {3, 17, 18, 96}) {
    auto& agg = series.windows[w];
    const int routes = static_cast<int>(rng.uniform_int(1, 4));
    for (int route = 0; route < routes; ++route) {
      const int sessions = static_cast<int>(rng.uniform_int(1, 40));
      for (int s = 0; s < sessions; ++s) {
        // Draws in a fixed order: testable, HDratio (testable only),
        // traffic, MinRTT. An untestable session passes a literal nullopt,
        // so no optional with an unset payload reaches the accumulators.
        const bool testable = rng.bernoulli(0.8);
        const double hd = testable ? rng.uniform(0, 1) : 0.0;
        const Bytes traffic = rng.uniform_int(1000, 500000);
        const Duration min_rtt = rng.uniform(0.01, 0.3);
        RouteWindowAgg& cell = agg.route(route);
        if (testable) {
          cell.add_session(min_rtt, hd, traffic);
        } else {
          cell.add_session(min_rtt, std::nullopt, traffic);
        }
      }
    }
  }
  return series;
}

std::string series_bytes(const GroupSeries& series) {
  ByteWriter w;
  save_group_series(series, w);
  return w.take();
}

TEST(SeriesIo, RoundTripIsBitwise) {
  const GroupSeries original = make_series(55);
  const std::string bytes = series_bytes(original);

  GroupSeries fresh;
  ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(load_group_series(r, fresh, nullptr));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(series_bytes(fresh), bytes);
  EXPECT_EQ(fresh.continent, original.continent);
  EXPECT_EQ(fresh.windows.size(), original.windows.size());
  EXPECT_EQ(fresh.total_traffic(), original.total_traffic());
}

TEST(SeriesIo, SavedSizePredictsActualBytesExactly) {
  // save_group_series reserves from this precomputed count; an over- or
  // under-estimate would mean either wasted memory or a silent fall back to
  // the geometric growth path the reserve exists to avoid.
  for (const std::uint64_t seed : {55u, 60u, 61u, 62u}) {
    const GroupSeries series = make_series(seed);
    EXPECT_EQ(group_series_saved_size(series), series_bytes(series).size())
        << "seed " << seed;
  }
  GroupSeries empty;
  empty.continent = Continent::kEurope;
  EXPECT_EQ(group_series_saved_size(empty), series_bytes(empty).size());
}

TEST(SeriesIo, SaveIntoPartiallyFilledWriterAppends) {
  // The reserve is relative to what the writer already holds; prior content
  // must survive untouched and the appended region must match a clean save.
  const GroupSeries series = make_series(63);
  ByteWriter w;
  w.u64(0xfeedface12345678ULL);
  const std::size_t prefix = w.size();
  save_group_series(series, w);
  const std::string combined = w.take();
  EXPECT_EQ(combined.substr(prefix), series_bytes(series));
  ByteReader r(combined.data(), combined.size());
  EXPECT_EQ(r.u64(), 0xfeedface12345678ULL);
}

TEST(SeriesIo, LoadIntoDirtyPooledSeriesMatches) {
  const GroupSeries original = make_series(56);
  const std::string bytes = series_bytes(original);

  // A series that has already ingested a different group, recycled through
  // the pool, must deserialize to the identical state (warm buffers only).
  RouteAggPool pool;
  GroupSeries target = make_series(99);
  pool.recycle(target);
  ByteReader r(bytes.data(), bytes.size());
  ASSERT_TRUE(load_group_series(r, target, &pool));
  EXPECT_EQ(series_bytes(target), bytes);
}

TEST(SeriesIo, TruncatedInputFailsCleanly) {
  const std::string bytes = series_bytes(make_series(57));
  RouteAggPool pool;
  for (std::size_t len = 0; len < bytes.size(); len += 3) {
    GroupSeries target;
    ByteReader r(bytes.data(), len);
    EXPECT_FALSE(load_group_series(r, target, &pool)) << "prefix " << len;
    EXPECT_TRUE(target.windows.empty());  // failed load leaves it empty
  }
}

TEST(SeriesIo, RejectsNonAscendingWindows) {
  GroupSeries series;
  series.continent = Continent::kEurope;
  series.windows[10].route(0).add_session(0.05, 0.5, 1000);
  series.windows[20].route(0).add_session(0.05, 0.5, 1000);
  std::string bytes = series_bytes(series);
  // Layout: u8 continent, u64 window count, then per window an i64 id.
  // Patch the second window id (10 -> 5) so ids are no longer ascending.
  const std::size_t first_window_size = (bytes.size() - 1 - 8) / 2;
  std::size_t second_id_at = 1 + 8 + first_window_size;
  bytes[second_id_at] = 5;
  GroupSeries target;
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_FALSE(load_group_series(r, target, nullptr));
}

TEST(SeriesIo, RejectsBadContinent) {
  std::string bytes = series_bytes(make_series(58));
  bytes[0] = 17;  // continent out of range
  GroupSeries target;
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_FALSE(load_group_series(r, target, nullptr));
}

// ---------------------------------------------------------------------------
// Artifact file format.
// ---------------------------------------------------------------------------

std::string artifact_dir(const char* name) {
  return ::testing::TempDir() + "fbedge_series_io_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ArtifactIo, RoundTripAndKeyChecks) {
  const std::string dir = artifact_dir("roundtrip");
  const std::uint64_t key = 0xabcdef0123456789ULL;
  const std::vector<std::string> blobs = {"alpha", "", "gamma-gamma"};
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  ASSERT_TRUE(write_ingest_artifact(path, key, blobs));

  IngestArtifact artifact;
  ASSERT_TRUE(read_ingest_artifact(path, key, blobs.size(), artifact));
  ASSERT_EQ(artifact.blobs.size(), blobs.size());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const auto [offset, length] = artifact.blobs[i];
    EXPECT_EQ(artifact.bytes.substr(offset, length), blobs[i]);
  }
  // kAnyGroupCount accepts whatever count the artifact declares.
  EXPECT_TRUE(read_ingest_artifact(path, key, kAnyGroupCount, artifact));
  // Wrong expectations must read as a miss.
  EXPECT_FALSE(read_ingest_artifact(path, key, blobs.size() + 1, artifact));
  EXPECT_FALSE(read_ingest_artifact(path, key ^ 1, blobs.size(), artifact));
  EXPECT_FALSE(read_ingest_artifact(path + ".nope", key, blobs.size(), artifact));
}

TEST(ArtifactIo, RejectsBitFlipsAnywhere) {
  const std::string dir = artifact_dir("bitflip");
  const std::uint64_t key = 42;
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  ASSERT_TRUE(write_ingest_artifact(path, key, {"payload-one", "payload-two"}));
  const std::string good = slurp(path);

  for (std::size_t i = 0; i < good.size(); i += 5) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    spit(path, bad);
    IngestArtifact artifact;
    EXPECT_FALSE(read_ingest_artifact(path, key, 2, artifact))
        << "flip at byte " << i;
  }
  spit(path, good);
  IngestArtifact artifact;
  EXPECT_TRUE(read_ingest_artifact(path, key, 2, artifact));
}

TEST(ArtifactIo, RejectsTruncation) {
  const std::string dir = artifact_dir("truncate");
  const std::uint64_t key = 43;
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  ASSERT_TRUE(write_ingest_artifact(path, key, {"some-blob-content"}));
  const std::string good = slurp(path);
  for (std::size_t len = 0; len < good.size(); len += 7) {
    spit(path, good.substr(0, len));
    IngestArtifact artifact;
    EXPECT_FALSE(read_ingest_artifact(path, key, 1, artifact)) << "len " << len;
  }
}

TEST(ArtifactIo, RejectsWrongEpochEvenWithValidChecksum) {
  const std::string dir = artifact_dir("epoch");
  const std::uint64_t key = 44;
  const std::string path = ingest_artifact_path(dir, key);
  std::remove(path.c_str());
  ASSERT_TRUE(write_ingest_artifact(path, key, {"blob"}));
  std::string bytes = slurp(path);
  // Epoch is the u32 at offset 8 (after the 8-byte magic). Bump it and
  // recompute the trailing checksum so only the epoch test can reject.
  bytes[8] = static_cast<char>(bytes[8] + 1);
  Fnv64 sum;
  sum.bytes(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>(sum.value() >> (8 * i));
  }
  spit(path, bytes);
  IngestArtifact artifact;
  EXPECT_FALSE(read_ingest_artifact(path, key, 1, artifact));
}

// ---------------------------------------------------------------------------
// End-to-end: warm == cold through run_edge_analysis, plus fallback.
// ---------------------------------------------------------------------------

void expect_results_eq(const EdgeAnalysisResult& a, const EdgeAnalysisResult& b) {
  EXPECT_EQ(a.groups_analyzed, b.groups_analyzed);
  EXPECT_EQ(a.total_traffic, b.total_traffic);
  EXPECT_EQ(a.degr_valid_traffic_rtt, b.degr_valid_traffic_rtt);
  EXPECT_EQ(a.degr_valid_traffic_hd, b.degr_valid_traffic_hd);
  EXPECT_EQ(a.opp_valid_traffic_rtt, b.opp_valid_traffic_rtt);
  EXPECT_EQ(a.opp_valid_traffic_hd, b.opp_valid_traffic_hd);
  EXPECT_EQ(a.rtt_within_3ms, b.rtt_within_3ms);
  EXPECT_EQ(a.hd_within_0025, b.hd_within_0025);
  EXPECT_EQ(a.rtt_improvable_5ms, b.rtt_improvable_5ms);
  EXPECT_EQ(a.hd_improvable_005, b.hd_improvable_005);

  auto cdf_eq = [](const WeightedCdf& x, const WeightedCdf& y) {
    WeightedCdf cx = x, cy = y;
    ASSERT_EQ(cx.size(), cy.size());
    if (cx.empty()) return;
    for (const double q : {0.1, 0.5, 0.9}) {
      EXPECT_EQ(cx.quantile(q), cy.quantile(q)) << "q=" << q;
    }
  };
  cdf_eq(a.degr_rtt, b.degr_rtt);
  cdf_eq(a.degr_hd, b.degr_hd);
  cdf_eq(a.opp_rtt, b.opp_rtt);
  cdf_eq(a.opp_hd, b.opp_hd);
  cdf_eq(a.fig10_peer_vs_transit, b.fig10_peer_vs_transit);

  ASSERT_EQ(a.table1.size(), b.table1.size());
  auto ia = a.table1.begin();
  auto ib = b.table1.begin();
  for (; ia != a.table1.end(); ++ia, ++ib) {
    EXPECT_TRUE(ia->first == ib->first);
    EXPECT_EQ(ia->second.group_traffic, ib->second.group_traffic);
    EXPECT_EQ(ia->second.event_traffic, ib->second.event_traffic);
  }
  EXPECT_EQ(a.table2_rtt.size(), b.table2_rtt.size());
  EXPECT_EQ(a.table2_hd.size(), b.table2_hd.size());
}

class IngestCacheEndToEnd : public ::testing::Test {
 protected:
  static World world() {
    WorldConfig wc;
    wc.seed = 2019;
    wc.groups_per_continent = 2;
    wc.days = 1;
    return build_world(wc);
  }
  static DatasetConfig dataset() {
    DatasetConfig dc;
    dc.seed = 2019;
    dc.days = 1;
    dc.session_scale = 0.1;
    return dc;
  }
};

TEST_F(IngestCacheEndToEnd, WarmRunIsIdenticalAtAnyThreadCount) {
  const World w = world();
  const DatasetConfig dc = dataset();
  const IngestCacheOptions cache{artifact_dir("warm")};
  std::remove(ingest_artifact_path(cache.dir, ingest_cache_key(w, dc, {})).c_str());

  RunStats cold_stats;
  const auto cold = run_edge_analysis(w, dc, {}, {}, {},
                                      RuntimeOptions::sequential(), &cold_stats,
                                      {}, cache);
  EXPECT_EQ(cold_stats.cache_hits, 0u);
  EXPECT_EQ(cold_stats.cache_misses, w.groups.size());

  const auto uncached =
      run_edge_analysis(w, dc, {}, {}, {}, RuntimeOptions::sequential());
  expect_results_eq(uncached, cold);  // writing the cache must not perturb

  for (const int threads : {1, 3}) {
    RunStats warm_stats;
    const auto warm = run_edge_analysis(w, dc, {}, {}, {},
                                        RuntimeOptions{threads}, &warm_stats,
                                        {}, cache);
    expect_results_eq(cold, warm);
    EXPECT_EQ(warm_stats.cache_hits, w.groups.size()) << threads;
    EXPECT_EQ(warm_stats.cache_misses, 0u);
  }
}

TEST_F(IngestCacheEndToEnd, CorruptArtifactFallsBackToColdIngest) {
  const World w = world();
  const DatasetConfig dc = dataset();
  const IngestCacheOptions cache{artifact_dir("fallback")};
  const std::string path =
      ingest_artifact_path(cache.dir, ingest_cache_key(w, dc, {}));
  std::remove(path.c_str());

  const auto cold = run_edge_analysis(w, dc, {}, {}, {},
                                      RuntimeOptions::sequential(), nullptr, {},
                                      cache);
  std::string bytes = slurp(path);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spit(path, bytes);

  RunStats stats;
  const auto again = run_edge_analysis(w, dc, {}, {}, {},
                                       RuntimeOptions::sequential(), &stats, {},
                                       cache);
  expect_results_eq(cold, again);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, w.groups.size());

  // The fallback run rewrote a good artifact; the next run is warm again.
  RunStats warm_stats;
  const auto warm = run_edge_analysis(w, dc, {}, {}, {},
                                      RuntimeOptions::sequential(), &warm_stats,
                                      {}, cache);
  expect_results_eq(cold, warm);
  EXPECT_EQ(warm_stats.cache_hits, w.groups.size());
}

TEST_F(IngestCacheEndToEnd, KeySeparatesConfigs) {
  const World w = world();
  DatasetConfig dc = dataset();
  const std::uint64_t base = ingest_cache_key(w, dc, {});
  DatasetConfig changed = dc;
  changed.seed = 2020;
  EXPECT_NE(ingest_cache_key(w, changed, {}), base);
  changed = dc;
  changed.session_scale = 0.2;
  EXPECT_NE(ingest_cache_key(w, changed, {}), base);
  GoodputConfig goodput;
  goodput.target_goodput = goodput.target_goodput * 2;
  EXPECT_NE(ingest_cache_key(w, dc, goodput), base);

  WorldConfig wc;
  wc.seed = 2019;
  wc.groups_per_continent = 2;
  wc.days = 1;
  wc.episodic_fraction = 0.9;
  EXPECT_NE(ingest_cache_key(build_world(wc), dc, {}), base);
}

}  // namespace
}  // namespace fbedge
