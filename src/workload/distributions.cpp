#include "workload/distributions.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"

namespace fbedge {

PiecewiseCdfSampler::PiecewiseCdfSampler(std::vector<Point> points)
    : points_(std::move(points)) {
  FBEDGE_EXPECT(points_.size() >= 2, "need at least 2 CDF control points");
  for (std::size_t i = 0; i < points_.size(); ++i) {
    FBEDGE_EXPECT(points_[i].value > 0, "control values must be positive");
    if (i > 0) {
      FBEDGE_EXPECT(points_[i].value > points_[i - 1].value, "values must increase");
      FBEDGE_EXPECT(points_[i].cumulative > points_[i - 1].cumulative,
                    "cumulative must increase");
    }
  }
  FBEDGE_EXPECT(std::abs(points_.back().cumulative - 1.0) < 1e-9,
                "last control point must have cumulative 1");
  ratio_.resize(points_.size(), 1.0);
  log_ratio_.resize(points_.size(), 0.0);
  for (std::size_t i = 1; i < points_.size(); ++i) {
    ratio_[i] = points_[i].value / points_[i - 1].value;
    log_ratio_[i] = std::log(ratio_[i]);
  }
}

double PiecewiseCdfSampler::quantile(double q) const {
  q = std::clamp(q, points_.front().cumulative, 1.0);
  // Control-point lists are short (<= 9 entries), so a forward scan finds
  // the same segment as a binary search for less; the loop terminates
  // because the last cumulative is 1 and q <= 1.
  std::size_t i = 1;
  while (points_[i].cumulative < q) ++i;
  const Point& hi = points_[i];
  const Point& lo = points_[i - 1];
  const double frac = (q - lo.cumulative) / (hi.cumulative - lo.cumulative);
  // Geometric interpolation: heavy-tailed sizes/durations are log-linear
  // between control points. The frac <= 0 / >= 1 branches return the exact
  // pow(r, 0) and pow(r, 1) values (control points stay bit-exact);
  // interior points use exp(frac * log r), within an ulp or two of pow.
  if (frac <= 0.0) return lo.value;
  if (frac >= 1.0) return lo.value * ratio_[i];
  return lo.value * std::exp(frac * log_ratio_[i]);
}

double PiecewiseCdfSampler::sample(Rng& rng) const { return quantile(rng.uniform()); }

namespace {

using P = PiecewiseCdfSampler::Point;

// Session duration CDFs (Fig. 1(a)): overall 7.4% < 1 s, 33% < 60 s,
// 20% > 180 s; HTTP/1.1 has more short sessions (44% < 60 s) than HTTP/2
// (26% < 60 s).
std::vector<P> duration_h1_points() {
  return {{0.2, 0.0},  {1.0, 0.09},  {5.0, 0.17},   {15.0, 0.27}, {60.0, 0.44},
          {180.0, 0.82}, {600.0, 0.94}, {1800.0, 0.99}, {7200.0, 1.0}};
}
std::vector<P> duration_h2_points() {
  return {{0.2, 0.0},  {1.0, 0.05},  {5.0, 0.10},   {15.0, 0.16}, {60.0, 0.26},
          {180.0, 0.77}, {600.0, 0.92}, {1800.0, 0.99}, {7200.0, 1.0}};
}

// Response size CDFs (Fig. 2): overall ~50% of responses < 6 KB; media
// endpoints have median ~19 KB and 17% of responses >= 100 KB.
std::vector<P> size_dynamic_points() {
  return {{80, 0.0},      {300, 0.12},   {1000, 0.30},  {3000, 0.48}, {6000, 0.63},
          {20000, 0.82},  {100000, 0.95}, {1000000, 0.993}, {10000000, 1.0}};
}
std::vector<P> size_media_points() {
  return {{200, 0.0},     {2000, 0.10},  {6000, 0.25},  {19000, 0.50}, {60000, 0.72},
          {100000, 0.83}, {1000000, 0.97}, {20000000, 1.0}};
}

// Transactions per session (Fig. 3): most sessions have one transaction;
// 87% of HTTP/1.1 and 75% of HTTP/2 sessions have < 5; sessions with >= 50
// transactions carry over half of total traffic.
std::vector<P> txn_h1_points() {
  return {{1, 0.55}, {2, 0.70}, {5, 0.88}, {10, 0.94}, {50, 0.985}, {200, 0.998},
          {1000, 1.0}};
}
std::vector<P> txn_h2_points() {
  return {{1, 0.40}, {2, 0.55}, {5, 0.76}, {10, 0.86}, {50, 0.955}, {200, 0.995},
          {1000, 1.0}};
}

constexpr double kHttp2Share = 0.55;
constexpr double kMediaShare = 0.22;

}  // namespace

TrafficModel::TrafficModel(std::uint64_t /*seed*/)
    : duration_h1_(duration_h1_points()),
      duration_h2_(duration_h2_points()),
      size_dynamic_(size_dynamic_points()),
      size_media_(size_media_points()),
      txn_h1_(txn_h1_points()),
      txn_h2_(txn_h2_points()) {}

HttpVersion TrafficModel::sample_version(Rng& rng) const {
  return rng.bernoulli(kHttp2Share) ? HttpVersion::kHttp2 : HttpVersion::kHttp1_1;
}

EndpointClass TrafficModel::sample_endpoint(Rng& rng) const {
  return rng.bernoulli(kMediaShare) ? EndpointClass::kMedia : EndpointClass::kDynamic;
}

Duration TrafficModel::sample_duration(HttpVersion v, Rng& rng) const {
  return (v == HttpVersion::kHttp2 ? duration_h2_ : duration_h1_).sample(rng);
}

int TrafficModel::sample_txn_count(HttpVersion v, Rng& rng) const {
  const double x = (v == HttpVersion::kHttp2 ? txn_h2_ : txn_h1_).sample(rng);
  return std::max(1, static_cast<int>(std::llround(x)));
}

Bytes TrafficModel::sample_response_size(EndpointClass e, Rng& rng) const {
  const double x =
      (e == EndpointClass::kMedia ? size_media_ : size_dynamic_).sample(rng);
  return std::max<Bytes>(64, static_cast<Bytes>(x));
}

SessionSpec TrafficModel::make_session(SessionId id, Rng& rng) const {
  SessionSpec spec;
  make_session_into(id, rng, spec);
  return spec;
}

void TrafficModel::make_session_into(SessionId id, Rng& rng, SessionSpec& spec) const {
  spec.id = id;
  spec.version = sample_version(rng);
  spec.endpoint = sample_endpoint(rng);
  spec.duration = sample_duration(spec.version, rng);
  const int txns = sample_txn_count(spec.version, rng);

  // Arrival pattern: a leading burst (page load), then sparse activity
  // across the session lifetime. ~35% of follow-up requests arrive
  // back-to-back with the previous one, producing the §3.2.5 coalescing
  // opportunities; the rest spread out, leaving the session mostly idle
  // (Fig. 1(b)).
  Duration t = rng.uniform(0.02, 0.3);
  const Duration mean_gap = spec.duration / static_cast<double>(txns + 1);
  spec.transactions.clear();
  spec.transactions.reserve(static_cast<std::size_t>(txns));
  for (int i = 0; i < txns; ++i) {
    TransactionSpec txn;
    txn.at = t;
    txn.response_bytes = sample_response_size(spec.endpoint, rng);
    // HTTP/2 occasionally issues a high-priority request that preempts.
    txn.priority = (spec.version == HttpVersion::kHttp2 && rng.bernoulli(0.08)) ? 0 : 16;
    spec.transactions.push_back(txn);
    const bool back_to_back = rng.bernoulli(0.35);
    t += back_to_back ? rng.exponential(0.004) : rng.exponential(mean_gap);
  }
  // Sessions end at/after the last response; keep the drawn duration if
  // longer (idle tail).
  spec.duration = std::max(spec.duration, t + 0.1);
}

void TrafficModel::skip_session(Rng& rng) const {
  const HttpVersion version = sample_version(rng);
  rng();  // endpoint
  rng();  // duration
  const int txns = sample_txn_count(version, rng);
  rng();  // leading-burst offset
  for (int i = 0; i < txns; ++i) {
    rng();  // response size
    if (version == HttpVersion::kHttp2) rng();  // priority
    rng();  // back-to-back flag
    rng.skip_exponential();  // gap (either mean draws the same way)
  }
}

}  // namespace fbedge
