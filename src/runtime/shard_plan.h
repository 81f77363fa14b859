// Partitioning of a group-indexed workload into shards.
//
// The measurement pipeline is embarrassingly parallel at user-group
// granularity: groups share no mutable state until aggregation, and every
// group draws from its own Rng stream derived from (seed, group id) — see
// entity_stream() in util/rng.h and DatasetGenerator::generate_group. A
// ShardPlan assigns each shard a contiguous block of group indices; a
// work-stealing pool rebalances at run time, and the reducer merges
// per-group results in group-id order so output is independent of both the
// shard count and the steal schedule.
#pragma once

#include <cstddef>
#include <vector>

#include "util/expect.h"

namespace fbedge {

/// Half-open index range [begin, end).
struct ShardRange {
  std::size_t begin{0};
  std::size_t end{0};

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
  /// The range's indices, ascending.
  std::vector<std::size_t> ids() const {
    std::vector<std::size_t> out(size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = begin + i;
    return out;
  }
};

/// A balanced block partition of [0, size) into K contiguous shards.
/// Blocks (rather than round-robin) keep each shard's groups adjacent,
/// which preserves locality of the per-group world data.
class ShardPlan {
 public:
  /// Partitions `num_items` items into `shards` blocks whose sizes differ
  /// by at most one. Shards may be empty when num_items < shards.
  static ShardPlan make(std::size_t num_items, int shards) {
    FBEDGE_EXPECT(shards >= 1, "shard plan needs at least one shard");
    ShardPlan plan;
    plan.num_items_ = num_items;
    plan.ranges_.reserve(static_cast<std::size_t>(shards));
    const std::size_t k = static_cast<std::size_t>(shards);
    const std::size_t base = num_items / k;
    const std::size_t extra = num_items % k;
    std::size_t at = 0;
    for (std::size_t s = 0; s < k; ++s) {
      const std::size_t len = base + (s < extra ? 1 : 0);
      plan.ranges_.push_back({at, at + len});
      at += len;
    }
    return plan;
  }

  int shard_count() const { return static_cast<int>(ranges_.size()); }
  std::size_t size() const { return num_items_; }

  const ShardRange& shard(int s) const {
    FBEDGE_EXPECT(s >= 0 && s < shard_count(), "shard index out of range");
    return ranges_[static_cast<std::size_t>(s)];
  }

 private:
  std::size_t num_items_{0};
  std::vector<ShardRange> ranges_;
};

}  // namespace fbedge
