// Piecewise-CDF samplers calibrated to the paper's traffic characterization
// (Figures 1-3).
//
// Rather than fitting parametric mixtures, the generator encodes each
// published distribution as CDF control points and samples by inverse
// transform with log-space interpolation between points. The Figure 1-3
// bench binaries then re-measure these distributions from generated
// traffic, closing the loop.
#pragma once

#include <vector>

#include "http/types.h"
#include "util/rng.h"
#include "util/units.h"

namespace fbedge {

/// Inverse-transform sampler over explicit CDF control points.
/// Values are interpolated geometrically (log-space) between points, which
/// suits the heavy-tailed size/duration distributions here.
class PiecewiseCdfSampler {
 public:
  struct Point {
    double value;      // must be > 0 and strictly increasing
    double cumulative; // in [0, 1], strictly increasing, last == 1
  };

  explicit PiecewiseCdfSampler(std::vector<Point> points);

  double sample(Rng& rng) const;

  /// Inverse CDF at quantile q (what sample() evaluates at a uniform draw).
  double quantile(double q) const;

 private:
  std::vector<Point> points_;
  // Per-segment geometry precomputed at construction: ratio_[i] is
  // value_i / value_{i-1} and log_ratio_[i] its log, so quantile()
  // interpolates with one exp() instead of a pow() per draw.
  std::vector<double> ratio_;
  std::vector<double> log_ratio_;
};

/// Session/transaction property samplers for one HTTP version (§2.3).
class TrafficModel {
 public:
  explicit TrafficModel(std::uint64_t seed);

  /// Draws a full session plan: version, endpoint class, duration,
  /// transaction arrival times / sizes / priorities.
  SessionSpec make_session(SessionId id, Rng& rng) const;

  /// As make_session, but refills `spec` in place (the transaction buffer
  /// keeps its capacity) so the steady-state hot path allocates nothing.
  /// Same RNG draw sequence and output as make_session.
  void make_session_into(SessionId id, Rng& rng, SessionSpec& spec) const;

  /// Count-only twin of make_session_into: advances `rng` past exactly the
  /// draws make_session_into would take, computing only the values that
  /// decide how many draws follow (version, transaction count) and
  /// keeping exponential()'s redraw rule. A change to make_session_into's
  /// draws must be mirrored here; the cursor tests in workload_test pin
  /// the two together.
  void skip_session(Rng& rng) const;

  // Individual samplers, exposed for tests and for Fig. 1-3 shape checks.
  Duration sample_duration(HttpVersion v, Rng& rng) const;
  int sample_txn_count(HttpVersion v, Rng& rng) const;
  Bytes sample_response_size(EndpointClass e, Rng& rng) const;
  HttpVersion sample_version(Rng& rng) const;
  EndpointClass sample_endpoint(Rng& rng) const;

 private:
  PiecewiseCdfSampler duration_h1_;
  PiecewiseCdfSampler duration_h2_;
  PiecewiseCdfSampler size_dynamic_;
  PiecewiseCdfSampler size_media_;
  PiecewiseCdfSampler txn_h1_;
  PiecewiseCdfSampler txn_h2_;
};

}  // namespace fbedge
