/// \file
/// \brief Thread-safe sharded LRU cache over cold-tier snapshot blocks.
///
/// The cold tier (docs/FORMATS.md "version 2") stores arc targets in
/// fixed-size delta/entropy-coded blocks behind io::SnapshotBlockReader.
/// ShardedBlockCache keeps a byte-bounded set of decoded blocks resident
/// for concurrent readers; the paged graph layer (storage/paged_graph.hpp)
/// is built on it:
///
///  * blocks are **pinned**, not borrowed: pin() returns a shared_ptr to
///    the decoded targets, so eviction only drops the cache's reference —
///    an outstanding pin keeps the block alive for as long as the caller
///    holds it. No span ever dangles.
///  * the block space is hashed across independent shards (mutex + LRU +
///    byte budget each), so 8-thread traversals do not serialize on one
///    lock.
///  * decode happens **outside** the shard lock. Two threads missing the
///    same block may both decode it; the loser discovers the resident
///    copy on re-lock and adopts it. Wasted work, never wrong data.
///
/// Statistics (hits/misses/evictions/residency) aggregate across shards
/// and feed RunTelemetry and the server info response.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/snapshot_blocks.hpp"
#include "support/types.hpp"

namespace mpx::storage {

/// A pinned decoded block: the targets of one cold-tier block, alive for
/// as long as any pin references them (eviction only drops the cache's
/// own reference).
using BlockPin = std::shared_ptr<const std::vector<vertex_t>>;

/// Thread-safe sharded LRU block cache with a global byte budget.
///
/// Each shard owns `budget / num_shards` bytes of decoded targets; a
/// shard always keeps its most-recently-used block resident regardless of
/// budget, so a freshly pinned block is never evicted by its own insert.
class ShardedBlockCache {
 public:
  /// Aggregated counters across all shards. `misses` counts decodes
  /// performed (a lost decode race still decoded, so it still counts);
  /// `evictions` counts cache references dropped by the budget sweep.
  struct Stats {
    std::uint64_t hits = 0;         ///< pins served from a resident block
    std::uint64_t misses = 0;       ///< pins that decoded from the file
    std::uint64_t evictions = 0;    ///< blocks pushed out by the budget
    std::uint64_t resident_blocks = 0;  ///< blocks currently cached
    std::uint64_t resident_bytes = 0;   ///< decoded bytes currently cached
  };

  /// `budget_bytes` bounds the decoded targets held across all shards
  /// (0 = unbounded). `num_shards` 0 picks `min(num_blocks, 16)`.
  ShardedBlockCache(std::shared_ptr<const io::SnapshotBlockReader> reader,
                    std::uint64_t budget_bytes, std::size_t num_shards = 0);

  ShardedBlockCache(const ShardedBlockCache&) = delete;
  ShardedBlockCache& operator=(const ShardedBlockCache&) = delete;

  /// Pins block `b`: returns its decoded targets, decoding on miss and
  /// evicting LRU blocks past the shard budget. Thread-safe. The returned
  /// pin stays valid for its whole lifetime regardless of later evictions.
  [[nodiscard]] BlockPin pin(std::size_t b);

  /// Aggregated counters (takes every shard lock; approximate only in the
  /// sense that concurrent pins may land between shard reads).
  [[nodiscard]] Stats stats() const;

  /// The reader the cache decodes from.
  [[nodiscard]] const io::SnapshotBlockReader& reader() const {
    return *reader_;
  }

  /// Total byte budget (0 = unbounded).
  [[nodiscard]] std::uint64_t budget_bytes() const { return budget_bytes_; }

  /// Number of shards the block space is hashed across.
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }

 private:
  struct Shard {
    std::mutex mutex;
    /// Front = most recently used. Owns the cache's reference to each pin.
    std::list<std::pair<std::size_t, BlockPin>> lru;
    std::unordered_map<std::size_t,
                       std::list<std::pair<std::size_t, BlockPin>>::iterator>
        by_block;
    std::uint64_t resident_bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// Drops LRU entries while the shard exceeds its budget (keeps >= 1).
  void evict_locked(Shard& shard);

  std::shared_ptr<const io::SnapshotBlockReader> reader_;
  std::uint64_t budget_bytes_;
  std::uint64_t shard_budget_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mpx::storage
