/// \file
/// \brief Out-of-core graph views: the CsrGraph read contract served from
/// cold-tier snapshot blocks through a bounded ShardedBlockCache.
///
/// PagedGraph exposes `num_vertices() / num_arcs() / degree(v) /
/// neighbors(v)` — the surface the templated traversal engine
/// (bfs/traversal.hpp) and the decomposition stack consume — while only
/// the varint-decoded offsets array is permanently resident. Arc targets
/// are decoded block-at-a-time on demand and held under the cache's byte
/// budget, so a decomposition runs on a graph 10-100x larger than RAM.
///
/// ### Span lifetime
/// `neighbors(v)` returns a span backed by per-thread state (a pinned
/// block or a stitch scratch buffer). The span stays valid until the
/// *same thread* calls `neighbors()` on the *same graph* again; other
/// threads and other graphs never invalidate it. That contract is exactly
/// what the traversal engine needs — each worker iterates one adjacency
/// list at a time — and is what makes 1/2/8-thread decompositions safe on
/// a never-fully-resident graph.
///
/// ### Pull-engine caveat
/// `kSupportsPullTraversal` is false: pull rounds re-scan the adjacency
/// of every unsettled vertex, which under a bounded budget amplifies
/// misses catastrophically (every sweep re-decodes most of the file). The
/// traversal engine therefore forces the push path on paged graphs — see
/// kGraphSupportsPull in bfs/traversal.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/snapshot_blocks.hpp"
#include "storage/block_cache.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace mpx::storage {

/// Unweighted out-of-core CSR view over a cold-tier snapshot.
///
/// Thread-safe: any number of threads may call the const read surface
/// concurrently (each thread gets its own neighbor lens; the block cache
/// is sharded). Not copyable — share via shared_ptr, like the result
/// store and the server do (store entries take their share through
/// shared_from_this()).
class PagedGraph : public std::enable_shared_from_this<PagedGraph> {
 public:
  /// Traversal-engine capability flag: pull sweeps would thrash the block
  /// cache, so the engine must stay on the push path (see file comment).
  static constexpr bool kSupportsPullTraversal = false;

  /// Serves `reader` through a fresh ShardedBlockCache holding at most
  /// `cache_budget_bytes` of decoded targets (0 = unbounded).
  /// `num_shards` 0 picks an automatic shard count.
  PagedGraph(std::shared_ptr<const io::SnapshotBlockReader> reader,
             std::uint64_t cache_budget_bytes, std::size_t num_shards = 0);

  PagedGraph(const PagedGraph&) = delete;
  PagedGraph& operator=(const PagedGraph&) = delete;
  ~PagedGraph();

  /// Number of vertices n.
  [[nodiscard]] vertex_t num_vertices() const {
    return reader_->num_vertices();
  }

  /// Number of undirected edges m (arc count / 2).
  [[nodiscard]] edge_t num_edges() const { return num_arcs() / 2; }

  /// Number of stored directed arcs (2m).
  [[nodiscard]] edge_t num_arcs() const { return reader_->num_arcs(); }

  /// Out-degree of v — answered from the resident offsets, no block I/O.
  [[nodiscard]] vertex_t degree(vertex_t v) const {
    MPX_EXPECTS(v < num_vertices());
    const auto offsets = reader_->offsets();
    return static_cast<vertex_t>(offsets[v + 1] - offsets[v]);
  }

  /// Neighbors of v, sorted ascending. Valid until this thread's next
  /// neighbors() call on this graph (see file comment "Span lifetime").
  [[nodiscard]] std::span<const vertex_t> neighbors(vertex_t v) const;

  /// Resident offsets array (n + 1 entries), aligned with CsrGraph.
  [[nodiscard]] std::span<const edge_t> offsets() const {
    return reader_->offsets();
  }

  /// The block cache serving this graph (stats feed RunTelemetry and the
  /// server info response).
  [[nodiscard]] ShardedBlockCache& cache() const { return *cache_; }

  /// The underlying cold-tier reader.
  [[nodiscard]] const io::SnapshotBlockReader& reader() const {
    return *reader_;
  }

 private:
  /// Per-(thread, graph) neighbor state: the pin serving the last
  /// single-block answer, or the scratch a cross-block run was stitched
  /// into. Exactly one lens per thread per live graph.
  struct Lens {
    BlockPin pin;
    std::vector<vertex_t> scratch;
  };

  /// This thread's lens for this graph (created on first use).
  [[nodiscard]] Lens& lens() const;

  std::shared_ptr<const io::SnapshotBlockReader> reader_;
  std::shared_ptr<ShardedBlockCache> cache_;
  /// Distinguishes graphs in the thread-local lens registry; unique for
  /// the process lifetime.
  std::uint64_t id_;
};

/// Weighted companion to PagedGraph: paged unweighted topology plus the
/// per-arc weights, which the cold tier stores raw and the reader maps
/// resident (weights never compress, so there is nothing to page).
///
/// The decomposition session does not yet serve weighted graphs paged
/// (weighted cold snapshots materialize regardless of budget — see
/// SharedResultStore::open_snapshot); this type exists so the weighted
/// path has the same shape when the weighted engine unifies.
class PagedWeightedGraph {
 public:
  /// See PagedGraph's constructor; `reader` must be weighted.
  PagedWeightedGraph(std::shared_ptr<const io::SnapshotBlockReader> reader,
                     std::uint64_t cache_budget_bytes,
                     std::size_t num_shards = 0);

  /// The paged unweighted topology.
  [[nodiscard]] const PagedGraph& topology() const { return graph_; }
  /// Number of vertices n.
  [[nodiscard]] vertex_t num_vertices() const { return graph_.num_vertices(); }
  /// Number of undirected edges m.
  [[nodiscard]] edge_t num_edges() const { return graph_.num_edges(); }
  /// Number of stored directed arcs (2m).
  [[nodiscard]] edge_t num_arcs() const { return graph_.num_arcs(); }
  /// Out-degree of v.
  [[nodiscard]] vertex_t degree(vertex_t v) const { return graph_.degree(v); }
  /// Neighbors of v (PagedGraph span-lifetime contract applies).
  [[nodiscard]] std::span<const vertex_t> neighbors(vertex_t v) const {
    return graph_.neighbors(v);
  }

  /// Weights of the arcs of v, aligned with neighbors(v); served from the
  /// resident (mapped) weight section.
  [[nodiscard]] std::span<const double> arc_weights(vertex_t v) const {
    const auto offsets = graph_.offsets();
    return weights_.subspan(offsets[v],
                            static_cast<std::size_t>(graph_.degree(v)));
  }

  /// Raw per-arc weight array, aligned with arc order.
  [[nodiscard]] std::span<const double> weights() const { return weights_; }

 private:
  PagedGraph graph_;
  std::span<const double> weights_;
};

}  // namespace mpx::storage
