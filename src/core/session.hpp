/// \file
/// \brief The decomposition cache: one graph, many cached decompositions,
/// query answering.
///
/// `SharedResultStore` is the cache. It owns a graph (in memory, mapped
/// zero-copy from a `.mpxs` snapshot, or paged out-of-core — the
/// `open_snapshot` factory picks), one `DecompositionWorkspace`, and a
/// thread-safe map from the full `DecompositionRequest` to a
/// `MaterializedDecomposition`. Each distinct request is computed once no
/// matter how many threads ask (single-flight), and every asker gets the
/// same entry. The decomposition server (src/server/) serves all of its
/// workers from one store.
///
/// A `MaterializedDecomposition` answers the queries a decomposition
/// service serves: which cluster a vertex is in, which edges cross
/// cluster boundaries (the beta-fraction cut of Definition 1.1), and
/// approximate point-to-point distances (apps/distance_oracle.hpp). The
/// result arrays are there when the entry is published; the boundary list
/// and the distance oracle are built by the first query that needs them,
/// once. Every query may be called from any number of threads.
///
/// Batch multi-beta runs (`acquire_batch`, `run_batch`) generate the
/// random draws once per batch (`ShiftBasis`) and derive every beta's
/// shifts from them — bitwise-identical to acquiring each request
/// individually, at a fraction of the shift-generation cost. Each beta
/// reuses the basis's cached maximum (ShiftBasis::base_max) on top of the
/// shared draws, so the per-beta work is one scaling pass plus the
/// bucketed rank; what a basis cannot share is the rank order itself —
/// frac(delta_max - delta) moves its floor boundaries with beta, so every
/// beta's tie-break order is genuinely different (see ARCHITECTURE.md,
/// shift phase).
///
/// `DecompositionSession` is the single-owner facade over one store that
/// the CLI, the examples and the benches use: it hands out plain
/// references to cached results and runs each query's request first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/decomposer.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "obs/metrics.hpp"
#include "storage/block_cache.hpp"

namespace mpx {

class DistanceOracle;

/// Record one run's phase timings and work counters into `registry`
/// under the `decomp.*` names (docs/OBSERVABILITY.md): phase-seconds
/// histograms (shift draw/rank, search, assemble, total, in nanoseconds)
/// plus the computes/rounds/arcs-scanned counters. SharedResultStore calls
/// it after every cold compute; the server points its store at its
/// registry so cold computes feed the served phase histograms.
void record_run_telemetry(obs::MetricsRegistry& registry,
                          const RunTelemetry& telemetry);

namespace storage {
class PagedGraph;
}  // namespace storage

/// How a session (or store/server) opens its snapshot.
struct SessionConfig {
  /// Byte budget for decoded cold-tier blocks. 0 (default) always
  /// materializes the full graph in memory. Nonzero: when the snapshot is
  /// an unweighted cold-tier file whose full-residency estimate
  /// (io::SnapshotInfo::resident_bytes_estimate) exceeds the budget, the
  /// session serves it **paged** — only the offsets array plus at most
  /// this many bytes of decoded targets are resident at a time. Weighted
  /// cold snapshots still materialize (the weighted algorithms have not
  /// been ported to the paged traversal path); hot snapshots always map
  /// zero-copy.
  std::uint64_t memory_budget_bytes = 0;
};

/// Compute the cut-edge list of `result` over `topology`: the undirected
/// edges {u, v} (u < v) whose endpoints lie in different clusters, in
/// (u, v) order — the beta-fraction boundary of Definition 1.1.
/// MaterializedDecomposition builds its boundary list with it.
/// `Graph` is any backend exposing the CsrGraph read contract; the scan
/// streams each adjacency list once in ascending vertex order, which is
/// the block-cache-friendly order on storage::PagedGraph.
template <typename Graph>
[[nodiscard]] std::vector<Edge> compute_boundary_edges(
    const Graph& topology, const DecompositionResult& result) {
  std::vector<Edge> boundary;
  const std::vector<vertex_t>& owner = result.owner;
  for (vertex_t u = 0; u < topology.num_vertices(); ++u) {
    for (const vertex_t v : topology.neighbors(u)) {
      if (u < v && owner[u] != owner[v]) boundary.push_back({u, v});
    }
  }
  return boundary;
}

/// One cached decomposition: the result plus the query artifacts derived
/// from it — the boundary edge list and, for unweighted results, the
/// distance oracle. Each artifact is built the first time a query asks
/// for it (std::call_once: concurrent first callers wait on one build; a
/// build that throws leaves the artifact unbuilt, so the next caller
/// retries). Every member may be called concurrently from any number of
/// threads.
///
/// The entry keeps the graph its builds read alive, so it may outlive the
/// store that published it (the server parks entries beside in-flight
/// responses across store clears).
class MaterializedDecomposition {
 public:
  /// Wrap `result` over `topology`. The entry keeps a copy of `topology`
  /// for its builds: a copy of a view graph (mapped snapshot, or the
  /// store's graph) shares the arrays; an owning graph is deep-copied.
  MaterializedDecomposition(const CsrGraph& topology,
                            DecompositionResult result);

  /// Same, over a paged graph, which must be owned by a std::shared_ptr
  /// (the entry shares that ownership). The boundary scan and the
  /// oracle's center graph stream the adjacency block-at-a-time, so the
  /// builds work within the cache budget too.
  MaterializedDecomposition(const storage::PagedGraph& topology,
                            DecompositionResult result);

  MaterializedDecomposition(const MaterializedDecomposition&) = delete;
  MaterializedDecomposition& operator=(const MaterializedDecomposition&) =
      delete;
  ~MaterializedDecomposition();

  [[nodiscard]] const DecompositionResult& result() const { return result_; }
  /// Center vertex that claimed v.
  [[nodiscard]] vertex_t owner_of(vertex_t v) const;
  /// Compact cluster id of v, in [0, num_clusters()).
  [[nodiscard]] cluster_t cluster_of(vertex_t v) const;
  [[nodiscard]] cluster_t num_clusters() const;
  /// The cut-edge list, (u, v)-ordered with u < v; built on the first
  /// call, the same span afterwards.
  [[nodiscard]] std::span<const Edge> boundary_arcs() const;
  /// Distance-oracle estimate of dist(u, v); kInfDist across components.
  /// The oracle is built on the first call. Throws std::invalid_argument
  /// for weighted results.
  [[nodiscard]] std::uint32_t estimate_distance(vertex_t u, vertex_t v) const;
  /// True once the distance oracle is built, so estimate_distance() only
  /// reads.
  [[nodiscard]] bool distance_oracle_built() const {
    return oracle_built_.load(std::memory_order_acquire);
  }

 private:
  DecompositionResult result_;
  CsrGraph graph_;                                    // in-memory entries
  std::shared_ptr<const storage::PagedGraph> paged_;  // paged entries
  mutable std::once_flag boundary_once_;
  mutable std::vector<Edge> boundary_;
  mutable std::once_flag oracle_once_;
  mutable std::atomic<bool> oracle_built_{false};
  mutable std::unique_ptr<DistanceOracle> oracle_;  // unweighted results only
};

/// The thread-safe decomposition cache (see the file comment).
///
/// Concurrency contract:
///  - `acquire` is **single-flight** per request key: when N threads ask
///    for the same cold key, one computes and the rest block until the
///    entry publishes; `computes()` counts the actual decompositions run.
///  - Distinct cold keys serialize on one internal compute lock (the
///    store owns one `DecompositionWorkspace`), but cache hits never touch
///    it.
///  - Entries are handed out as `shared_ptr<const MaterializedDecomposition>`.
///    `clear()` drops the store's references; outstanding pointers (and
///    response bytes in flight that view their arrays) stay valid until
///    released.
class SharedResultStore {
 public:
  /// Serve decompositions of an unweighted graph. An owning graph is
  /// moved behind a shared view once, so entries never copy it.
  explicit SharedResultStore(CsrGraph g);
  /// Serve decompositions of a weighted graph (weighted algorithms become
  /// available; unweighted ones run on the topology).
  explicit SharedResultStore(WeightedCsrGraph g);
  /// Serve decompositions of an out-of-core paged graph. Only "mpx"
  /// computes (decompose() throws for other algorithms) and topology() is
  /// unavailable; the query surface (cluster/boundary/distance) works.
  explicit SharedResultStore(std::shared_ptr<storage::PagedGraph> g);
  /// Open a `.mpxs` snapshot: hot files map zero-copy (io::map_snapshot),
  /// the weighted flag in the header selects the graph type, and a cold
  /// unweighted snapshot larger than `config.memory_budget_bytes` is
  /// served paged (see SessionConfig). Throws std::runtime_error on
  /// unreadable or corrupt snapshots.
  [[nodiscard]] static std::unique_ptr<SharedResultStore> open_snapshot(
      const std::string& path, const SessionConfig& config = {});
  ~SharedResultStore();

  SharedResultStore(const SharedResultStore&) = delete;
  SharedResultStore& operator=(const SharedResultStore&) = delete;

  /// The graph's in-memory unweighted topology. Throws std::logic_error
  /// for paged stores (use num_vertices()/num_edges()).
  [[nodiscard]] const CsrGraph& topology() const;
  /// True when the store holds edge weights.
  [[nodiscard]] bool weighted() const { return weighted_; }
  /// True when the store serves its graph out-of-core.
  [[nodiscard]] bool paged() const { return pgraph_ != nullptr; }
  /// Number of vertices, on every backend (in-memory or paged).
  [[nodiscard]] vertex_t num_vertices() const;
  /// Number of undirected edges, on every backend.
  [[nodiscard]] edge_t num_edges() const;
  /// Lifetime block-cache counters; all-zero for non-paged stores.
  [[nodiscard]] storage::ShardedBlockCache::Stats cache_stats() const;

  /// Feed every subsequent cold compute's telemetry into `registry` (see
  /// record_run_telemetry). nullptr (the default) disables recording.
  /// Call before serving; the registry must outlive the store.
  void set_metrics(obs::MetricsRegistry* registry) { metrics_ = registry; }

  /// An acquired entry plus whether it was answered without running the
  /// decomposition for this call (a prior compute, a warm-start load, or
  /// another thread's in-flight compute this call waited on).
  struct Acquired {
    std::shared_ptr<const MaterializedDecomposition> entry;
    bool from_cache = false;
  };

  /// Fetch `req`'s entry, computing it first when cold (single-flight;
  /// see the class comment). Throws what `validate_request` / `decompose`
  /// throw; a failed compute leaves the store unchanged.
  [[nodiscard]] Acquired acquire(const DecompositionRequest& req);

  /// Acquire `base` at each beta of `betas`: every beta is validated up
  /// front, and when any of them is cold the batch generates the seed's
  /// shift draws once. Results are bitwise-identical to individual
  /// acquire() calls.
  [[nodiscard]] std::vector<Acquired> acquire_batch(
      const DecompositionRequest& base, std::span<const double> betas);

  /// The cached entry for `req`, or nullptr when not resident. Never
  /// computes and never blocks on an in-flight compute.
  [[nodiscard]] std::shared_ptr<const MaterializedDecomposition> cached(
      const DecompositionRequest& req) const;

  /// Restore a DecompositionSession::save_cached() file into the store
  /// under `req` (the warm-start path). Returns false when the file does
  /// not exist; returns true without reading when `req` is already
  /// resident (results are deterministic in the request, and outstanding
  /// references into the resident entry stay valid). Throws
  /// std::runtime_error on malformed content, a vertex-count mismatch with
  /// this graph, or a telemetry block naming a different algorithm than
  /// `req`; throws std::invalid_argument for weighted algorithms (the text
  /// format carries no radii).
  bool load_cached(const DecompositionRequest& req, const std::string& path);

  /// Resident entry count (in-flight computes excluded).
  [[nodiscard]] std::size_t size() const;
  /// Lifetime count of decompositions actually computed — acquire()
  /// traffic minus every flavor of cache hit.
  [[nodiscard]] std::uint64_t computes() const;
  /// Drop every resident entry. Outstanding shared_ptrs stay valid; a
  /// compute in flight during the clear still publishes afterwards.
  void clear();

 private:
  /// Exact request identity: algorithm, beta bit pattern, seed, and the
  /// three enums. Distinct engines are distinct entries (results are
  /// engine-invariant, but telemetry is not).
  using Key = std::tuple<std::string, std::uint64_t, std::uint64_t, int, int,
                         int>;
  static Key key_of(const DecompositionRequest& req);
  /// acquire() for an already-validated request, drawing shifts from
  /// `basis` when non-null.
  [[nodiscard]] Acquired acquire_validated(const DecompositionRequest& req,
                                           const ShiftBasis* basis);
  /// The entry for `result` over this store's graph.
  [[nodiscard]] std::shared_ptr<const MaterializedDecomposition> make_entry(
      DecompositionResult result) const;

  CsrGraph graph_;            // unweighted stores (a shared view)
  WeightedCsrGraph wgraph_;   // weighted stores (a shared view)
  std::shared_ptr<storage::PagedGraph> pgraph_;  // paged stores
  bool weighted_ = false;

  /// Serializes decompositions (workspace_ is only touched under this
  /// lock). Never held together with mutex_.
  std::mutex compute_mutex_;
  DecompositionWorkspace workspace_;

  /// Guards entries_, inflight_, computes_.
  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< waiters for in-flight keys
  std::map<Key, std::shared_ptr<const MaterializedDecomposition>> entries_;
  std::set<Key> inflight_;
  std::uint64_t computes_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;  // not owned; may be null
};

/// A single-owner facade over one SharedResultStore: the same cache and
/// the same answers, with results handed out as plain references. Every
/// member forwards to the store and is as thread-safe as it is, except
/// that clear_cache() invalidates outstanding references.
class DecompositionSession {
 public:
  /// Serve decompositions of an unweighted graph.
  explicit DecompositionSession(CsrGraph g);
  /// Serve decompositions of a weighted graph (weighted algorithms become
  /// available; unweighted ones run on the topology).
  explicit DecompositionSession(WeightedCsrGraph g);
  /// Serve decompositions of an out-of-core paged graph (see the
  /// SharedResultStore constructor).
  explicit DecompositionSession(std::shared_ptr<storage::PagedGraph> g);
  /// Open a `.mpxs` snapshot zero-copy (SharedResultStore::open_snapshot
  /// with the default config). Throws std::runtime_error on unreadable or
  /// corrupt snapshots.
  [[nodiscard]] static DecompositionSession open_snapshot(
      const std::string& path);
  /// Open a snapshot under a memory budget: serves cold unweighted
  /// snapshots larger than `config.memory_budget_bytes` paged (see
  /// SessionConfig), everything else like open_snapshot(path).
  [[nodiscard]] static DecompositionSession open_snapshot(
      const std::string& path, const SessionConfig& config);

  DecompositionSession(DecompositionSession&&) noexcept = default;
  DecompositionSession& operator=(DecompositionSession&&) noexcept = default;
  ~DecompositionSession() = default;

  /// The graph's in-memory unweighted topology. Throws std::logic_error
  /// for paged sessions (use num_vertices()/num_edges() and the query
  /// surface instead).
  [[nodiscard]] const CsrGraph& topology() const { return store_->topology(); }
  /// True when the session holds edge weights.
  [[nodiscard]] bool weighted() const { return store_->weighted(); }
  /// True when the session serves its graph out-of-core (see
  /// SessionConfig::memory_budget_bytes).
  [[nodiscard]] bool paged() const { return store_->paged(); }
  /// Number of vertices, on every backend (in-memory or paged).
  [[nodiscard]] vertex_t num_vertices() const {
    return store_->num_vertices();
  }
  /// Number of undirected edges, on every backend.
  [[nodiscard]] edge_t num_edges() const { return store_->num_edges(); }
  /// Lifetime block-cache counters; all-zero for non-paged sessions.
  [[nodiscard]] storage::ShardedBlockCache::Stats cache_stats() const {
    return store_->cache_stats();
  }

  /// Run (or fetch from cache) the decomposition for `req`. The returned
  /// reference stays valid until clear_cache() or session destruction.
  const DecompositionResult& run(const DecompositionRequest& req);

  /// Run `base` at each beta of `betas`, generating the seed's random
  /// draws once (SharedResultStore::acquire_batch). Results are
  /// bitwise-identical to individual run() calls; cached entries are
  /// reused. The returned pointers follow run()'s lifetime rule.
  std::vector<const DecompositionResult*> run_batch(
      const DecompositionRequest& base, std::span<const double> betas);

  /// The cached result for `req`, or nullptr when never run.
  [[nodiscard]] const DecompositionResult* cached(
      const DecompositionRequest& req) const;
  [[nodiscard]] std::size_t cache_size() const { return store_->size(); }
  /// Drop every cached result (with its boundary list and oracle);
  /// subsequent runs regenerate bitwise-identical state.
  void clear_cache() { store_->clear(); }

  // --- queries (each runs the request first when not cached) ---

  /// Center vertex that claimed v.
  vertex_t owner_of(vertex_t v, const DecompositionRequest& req);
  /// Compact cluster id of v, in [0, num_clusters(req)).
  cluster_t cluster_of(vertex_t v, const DecompositionRequest& req);
  cluster_t num_clusters(const DecompositionRequest& req);
  /// The undirected edges {u, v} (u < v) whose endpoints lie in different
  /// clusters — the beta-fraction boundary of Definition 1.1. Computed
  /// once per cached result, in (u, v) order.
  std::span<const Edge> boundary_arcs(const DecompositionRequest& req);
  /// Upper-bound estimate of dist(u, v) through the decomposition's
  /// center graph (apps/distance_oracle.hpp); kInfDist across components.
  /// Requires an unweighted algorithm; throws std::invalid_argument for
  /// weighted ones.
  std::uint32_t estimate_distance(vertex_t u, vertex_t v,
                                  const DecompositionRequest& req);

  // --- persistence (unweighted algorithms) ---

  /// Save the cached result for `req` (running it first if needed) as a
  /// decomposition file with its telemetry block, so a later session can
  /// load_cached() it instead of recomputing.
  void save_cached(const DecompositionRequest& req, const std::string& path);
  /// Restore a previously saved result into the cache under `req`
  /// (SharedResultStore::load_cached: false when the file does not exist,
  /// true without reading when `req` is already cached, same errors).
  bool load_cached(const DecompositionRequest& req, const std::string& path) {
    return store_->load_cached(req, path);
  }

 private:
  explicit DecompositionSession(std::unique_ptr<SharedResultStore> store);
  /// The store's entry for `req`, computing it first when cold. Valid
  /// until clear_cache(): the store keeps its own reference.
  const MaterializedDecomposition& entry(const DecompositionRequest& req);

  std::unique_ptr<SharedResultStore> store_;
};

}  // namespace mpx
