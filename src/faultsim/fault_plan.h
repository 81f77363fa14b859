// Deterministic fault-injection plan (chaos testing the measurement
// pipeline).
//
// A production deployment of the paper's pipeline loses records to
// truncated captures, sees corrupt fields, duplicated samples, and clock
// skew between instrumentation streams, drops aggregation windows, and has
// shard workers die mid-run. FaultPlan describes a reproducible dose of
// each: every injection decision is a pure function of
// (plan.seed, fault site, entity key), drawn from a freshly derived
// fbedge::Rng stream — never from shared sequential state — so decisions
// are independent of thread count, processing order, and of each other,
// and any test can recompute exactly which faults a run injected.
//
// Layering: faultsim sits between runtime and analysis. It may use
// sampler/agg/runtime types; analysis wires it into the pipeline. The
// counters it fills live in runtime/run_stats.h (FaultCounters) so lower
// layers can carry them without a faultsim dependency.
#pragma once

#include <cstdint>

#include "agg/user_group.h"
#include "util/rng.h"
#include "util/units.h"

namespace fbedge {

/// Fault rates and knobs for one chaos run. All rates are probabilities in
/// [0, 1]; the zero-initialized plan injects nothing and run_edge_analysis
/// takes exactly the fault-free code path (byte-identical outputs).
struct FaultPlan {
  /// Seed of every injection decision; independent of the dataset seed so
  /// the same fault schedule can be replayed against different worlds.
  std::uint64_t seed{0};

  // ---- sampler layer (per sampled session, keyed by session id) ----------
  /// Record cut mid-line before parsing (capture truncation).
  double truncate_rate{0};
  /// Record with mutated fields (bit flips / garbage captures).
  double corrupt_rate{0};
  /// Record delivered twice (at-least-once shipping).
  double duplicate_rate{0};
  /// ACK-timestamp stream shifted against the NIC-timestamp stream (clock
  /// skew between the MinRTT and HDratio instrumentation points).
  double skew_rate{0};
  /// Skew magnitude: shift drawn uniformly from [-skew_max, skew_max].
  Duration skew_max{0.25};
  /// Per group: most sessions dropped, leaving under-30-sample windows.
  double thin_rate{0};
  /// Fraction of a thinned group's sessions that survive.
  double thin_keep_fraction{0.1};
  /// Per PoP: every group served by the PoP goes silent (empty PoP).
  double pop_outage_rate{0};

  // ---- aggregation layer (per (group, window)) ---------------------------
  /// Aggregated 15-minute window dropped before analysis.
  double window_drop_rate{0};

  // ---- stream layer (per (group, window, micro-batch)) -------------------
  /// Micro-batch delivery held back by 1..stream_late_max_delay windows of
  /// event time (delivery-order fault on the source -> window-machine
  /// transport). Held batches whose windows seal in the meantime become
  /// counted late-drops at the machine.
  double stream_late_rate{0};
  /// Maximum hold-back of a late batch, in 15-minute windows (>= 1).
  int stream_late_max_delay{4};
  /// Micro-batch delivered twice (at-least-once transport), inflating the
  /// open window exactly like duplicated sampler records.
  double stream_duplicate_rate{0};

  // ---- runtime layer (per (group, attempt)) ------------------------------
  /// Shard task abort probability per attempt. EdgeReducer draws the
  /// attempts of each group's task before it does any work; an aborted
  /// attempt does none, and a group whose every attempt aborts is lost:
  /// it drops out of every rollup, like a group without valid data.
  double task_abort_rate{0};
  /// Attempts per group before it is abandoned (>= 1).
  int task_max_attempts{3};

  // ---- distrib layer (per (shard, attempt)) ------------------------------
  /// Probability that a shard worker process crashes on a given attempt —
  /// before publishing anything, so a crashed attempt can never leave a
  /// partial artifact or manifest behind. The coordinator re-spawns up to
  /// worker_max_attempts total attempts, then degrades the shard to cold
  /// ingest during the reduce (output stays byte-identical; the loss is
  /// counted in FaultCounters::degraded_shards).
  double worker_crash_rate{0};
  /// Spawn attempts per shard before it is degraded (>= 1).
  int worker_max_attempts{2};

  bool sampler_faults() const {
    return truncate_rate > 0 || corrupt_rate > 0 || duplicate_rate > 0 ||
           skew_rate > 0 || thin_rate > 0 || pop_outage_rate > 0;
  }
  bool agg_faults() const { return window_drop_rate > 0; }
  bool stream_faults() const {
    return stream_late_rate > 0 || stream_duplicate_rate > 0;
  }
  bool runtime_faults() const { return task_abort_rate > 0; }
  bool worker_faults() const { return worker_crash_rate > 0; }
  bool enabled() const {
    return sampler_faults() || agg_faults() || stream_faults() ||
           runtime_faults() || worker_faults();
  }
};

/// Fault-site salts: each site derives its own decision stream so adding a
/// site (or toggling one rate) never reshuffles another site's decisions.
namespace faultsite {
constexpr std::uint64_t kTruncate = 0x7472756e63617465ULL;     // "truncate"
constexpr std::uint64_t kTruncatePos = 0x7472756e63706f73ULL;  // "truncpos"
constexpr std::uint64_t kCorrupt = 0x636f727275707431ULL;      // "corrupt1"
constexpr std::uint64_t kCorruptKind = 0x636f72406b696e64ULL;
constexpr std::uint64_t kSkewDelta = 0x736b6577406d6167ULL;
constexpr std::uint64_t kDuplicate = 0x6475706c6963617BULL;
constexpr std::uint64_t kSkew = 0x736b657764656c74ULL;         // "skewdelt"
constexpr std::uint64_t kThinGroup = 0x7468696e67727570ULL;    // "thingrup"
constexpr std::uint64_t kThinKeep = 0x7468696e6b656570ULL;     // "thinkeep"
constexpr std::uint64_t kPopOutage = 0x706f706f75746167ULL;    // "popoutag"
constexpr std::uint64_t kWindowDrop = 0x77696e64726f7031ULL;   // "windrop1"
constexpr std::uint64_t kTaskAbort = 0x7461736b61626f72ULL;    // "taskabor"
constexpr std::uint64_t kStreamLate = 0x7374726d6c617465ULL;   // "strmlate"
constexpr std::uint64_t kStreamLateDelay = 0x7374726d64656c79ULL;  // "strmdely"
constexpr std::uint64_t kStreamDup = 0x7374726d64757031ULL;    // "strmdup1"
constexpr std::uint64_t kWorkerCrash = 0x776f726b63726173ULL;  // "workcras"
// Scenario-pack perturbation sites (src/scenario/): same purity rule as the
// fault sites above, but seeded from ScenarioPack::seed instead of a
// FaultPlan. kScenarioDepref is structural (no draw today) and reserved so
// a future probabilistic depref cannot collide with another site.
constexpr std::uint64_t kScenarioDrain = 0x7363646e7261696eULL;     // "scdnrain"
constexpr std::uint64_t kScenarioDepref = 0x7363646570726566ULL;    // "scdepref"
constexpr std::uint64_t kScenarioFlash = 0x7363666c61736831ULL;     // "scflash1"
constexpr std::uint64_t kScenarioCableCut = 0x7363636162637574ULL;  // "sccabcut"
}  // namespace faultsite

/// The decision stream for one (site, entity) pair. Fresh per call: the
/// first draws decide the injection, later draws parameterize it (cut
/// position, skew delta, ...), and no state survives between entities.
inline Rng fault_stream(const FaultPlan& plan, std::uint64_t site,
                        std::uint64_t key) {
  return entity_stream(plan.seed ^ site, key);
}

/// One Bernoulli injection decision; false whenever the rate is zero
/// (without deriving a stream, so a zeroed plan costs nothing).
inline bool fault_decision(const FaultPlan& plan, std::uint64_t site,
                           std::uint64_t key, double rate) {
  if (rate <= 0) return false;
  return fault_stream(plan, site, key).bernoulli(rate);
}

/// Canonical fault key of a user group (same value on every thread/shard).
inline std::uint64_t group_fault_key(const UserGroupKey& key) {
  return static_cast<std::uint64_t>(UserGroupKeyHash{}(key));
}

/// Canonical fault key of one stream micro-batch: (group, nominal window,
/// sequence within the window). Pure data — independent of delivery order
/// and thread count — so the stream fault sites (kStreamLate /
/// kStreamLateDelay / kStreamDup) are exactly recountable.
inline std::uint64_t stream_batch_fault_key(std::uint64_t group_key, int window,
                                            int seq) {
  return hash_combine(group_key,
                      hash_combine(static_cast<std::uint64_t>(window),
                                   static_cast<std::uint64_t>(seq)));
}

/// Whether the shard task for `group_key` aborts on `attempt` (runtime
/// layer). Deterministic in (plan, group, attempt): a group is lost iff
/// the decision holds for every attempt 0..task_max_attempts-1.
inline bool task_abort_decision(const FaultPlan& plan, std::uint64_t group_key,
                                int attempt) {
  return fault_decision(plan, faultsite::kTaskAbort,
                        hash_combine(group_key, static_cast<std::uint64_t>(attempt)),
                        plan.task_abort_rate);
}

/// Whether the worker process for shard `shard` crashes on `attempt`
/// (distrib layer). Deterministic in (plan, shard, attempt) — independent
/// of pids, spawn order, and wall time — so a shard is degraded iff the
/// decision holds for every attempt 0..worker_max_attempts-1, and any test
/// can recount coordinator crash/retry/degrade tallies exactly from the
/// plan and the shard count alone. The worker checks this before touching
/// the cache directory, so a crashed attempt never publishes an artifact
/// or manifest.
inline bool worker_crash_decision(const FaultPlan& plan, int shard, int attempt) {
  return fault_decision(plan, faultsite::kWorkerCrash,
                        hash_combine(static_cast<std::uint64_t>(shard),
                                     static_cast<std::uint64_t>(attempt)),
                        plan.worker_crash_rate);
}

}  // namespace fbedge
