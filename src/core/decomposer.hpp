/// \file
/// \brief The unified decomposition entry layer: one request/result
/// contract over every algorithm in the library.
///
/// Every decomposition algorithm the library ships — the MPX partition, its
/// weighted variants, and the baselines — historically had its own entry
/// point and result shape. This header defines the single contract the
/// benches, tools, and the serving layer build on instead:
///
///  * `DecompositionRequest` — what to run: an algorithm id from the string
///    registry plus the shared knobs (beta, seed, tie-break, shift
///    distribution, traversal engine).
///  * `DecompositionResult` — what every algorithm produces: the per-vertex
///    owner/settle arrays, real-valued radii when the algorithm is
///    weighted, the compacted decomposition views, and uniform
///    `RunTelemetry` (rounds, arcs scanned, per-phase timings).
///  * the algorithm registry — `registered_algorithms()` /
///    `find_algorithm()` — so callers select algorithms by name
///    ("mpx", "mpx-bucketed", "ball-growing", "bgkmpt", "mpx-weighted").
///  * `DecompositionWorkspace` — owns the shift/frontier/claim scratch so
///    repeated decompositions of one graph stop reallocating (the
///    measured win lives in BENCH_session.json).
///  * `decompose()` — run a request against a graph, optionally through a
///    workspace and a precomputed `ShiftBasis` (batch multi-beta runs).
///
/// The legacy free functions (`partition`, `weighted_partition`,
/// `bucketed_weighted_partition`, `ball_growing_decomposition`,
/// `bgkmpt_decomposition`) remain as thin compatibility entry points and
/// produce byte-identical owner/settle output for the same options; new
/// code should prefer this facade. `DecompositionSession`
/// (core/session.hpp) layers caching and queries on top.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bfs/multi_source_bfs.hpp"
#include "core/decomposition.hpp"
#include "core/options.hpp"
#include "core/shifts.hpp"
#include "core/telemetry.hpp"
#include "core/weighted_partition.hpp"
#include "graph/csr_graph.hpp"
#include "support/types.hpp"

namespace mpx {

namespace storage {
class PagedGraph;
}  // namespace storage

/// What to run: the one request shape every entry point understands.
struct DecompositionRequest {
  /// Registry id; see registered_algorithms().
  std::string algorithm = "mpx";
  /// Definition 1.1 beta: target cut fraction. Must be finite and in
  /// (0, 1]; decompose() throws std::invalid_argument otherwise.
  double beta = 0.1;
  /// Seed for the shift values (and permutation tie-breaks).
  std::uint64_t seed = 0;
  /// Tie-break rule for same-round arrivals (shift-based algorithms).
  TieBreak tie_break = TieBreak::kFractionalShift;
  /// Distribution of the shift values (shift-based algorithms).
  ShiftDistribution distribution = ShiftDistribution::kExponential;
  /// Traversal engine; changes only the schedule, never the result.
  TraversalEngine engine = TraversalEngine::kAuto;

  /// The equivalent legacy options struct (loses the algorithm id).
  [[nodiscard]] PartitionOptions partition_options() const {
    return PartitionOptions{beta, seed, tie_break, distribution, engine};
  }

  /// Lift legacy options into a request for `algorithm`.
  [[nodiscard]] static DecompositionRequest from_options(
      std::string algorithm, const PartitionOptions& opt) {
    DecompositionRequest req;
    req.algorithm = std::move(algorithm);
    req.beta = opt.beta;
    req.seed = opt.seed;
    req.tie_break = opt.tie_break;
    req.distribution = opt.distribution;
    req.engine = opt.engine;
    return req;
  }

  friend bool operator==(const DecompositionRequest&,
                         const DecompositionRequest&) = default;
};

/// What every algorithm produces. The canonical product is the owner/settle
/// pair; the compacted `Decomposition` (or `WeightedDecomposition`) view is
/// assembled once at the end of the run so downstream consumers pay no
/// conversion.
struct DecompositionResult {
  /// owner[v]: the center vertex whose search claimed v (owner[c] == c
  /// identifies centers). Always populated.
  std::vector<vertex_t> owner;
  /// settle[v]: integer rounds between v's owner starting and v settling —
  /// the hop distance to the owner for unweighted algorithms, the integer
  /// weighted distance for "mpx-bucketed". Empty for "mpx-weighted", whose
  /// real-valued keys have no round structure.
  std::vector<std::uint32_t> settle;
  /// radii[v]: real-valued weighted distance from v to its center along an
  /// in-piece path. Populated exactly when weighted() is true.
  std::vector<double> radii;
  /// Compacted view for unweighted algorithms (empty when weighted()).
  Decomposition decomposition;
  /// Compacted view for weighted algorithms (empty otherwise).
  WeightedDecomposition weighted_decomposition;
  /// Uniform telemetry for this run.
  RunTelemetry telemetry;
  /// Set by weighted algorithms (see weighted()).
  bool is_weighted = false;

  /// True when the producing algorithm measures real-valued radii (radii
  /// is then populated, and weighted_decomposition is the compacted view).
  [[nodiscard]] bool weighted() const { return is_weighted; }

  [[nodiscard]] vertex_t num_vertices() const {
    return static_cast<vertex_t>(owner.size());
  }
  [[nodiscard]] cluster_t num_clusters() const {
    return weighted() ? weighted_decomposition.num_clusters()
                      : decomposition.num_clusters();
  }
  /// Compact cluster id of v, in [0, num_clusters()).
  [[nodiscard]] cluster_t cluster_of(vertex_t v) const {
    return weighted() ? weighted_decomposition.assignment[v]
                      : decomposition.cluster_of(v);
  }
  /// Center vertex of cluster c.
  [[nodiscard]] vertex_t center(cluster_t c) const {
    return weighted() ? weighted_decomposition.centers[c]
                      : decomposition.center(c);
  }
};

/// Registry metadata for one algorithm.
struct AlgorithmInfo {
  /// The string id benches/tools/the service select by.
  std::string_view name;
  /// True when the algorithm reads edge weights: it requires a
  /// WeightedCsrGraph and fills radii. Unweighted algorithms run on either
  /// graph type (the weighted overload uses the topology).
  bool needs_weights = false;
  /// True when the algorithm consumes the exponential shifts (and thus
  /// benefits from a shared ShiftBasis in batch runs).
  bool uses_shifts = false;
  /// One-line description for --help style listings.
  std::string_view summary;
};

/// Every registered algorithm, in stable listing order.
[[nodiscard]] std::span<const AlgorithmInfo> registered_algorithms();

/// Metadata for `name`, or nullptr when no such algorithm is registered.
[[nodiscard]] const AlgorithmInfo* find_algorithm(std::string_view name);

/// Reusable scratch owned by the caller: random-shift buffers plus the
/// multi-source-BFS claim/frontier structures. Passing the same workspace
/// to repeated decompose() calls on one graph eliminates every per-call
/// scratch allocation (the result arrays themselves are always freshly
/// owned by the returned DecompositionResult). Constructing one allocates
/// nothing and starts no threads; the first decompose() sizes it. Not
/// thread-safe: one workspace per thread.
struct DecompositionWorkspace {
  Shifts shifts;
  ShiftWorkspace shift_scratch;
  MultiSourceBfsWorkspace bfs;
  /// When non-null, the "mpx" search appends one record per round to it
  /// (see RoundLog in bfs/traversal.hpp). Null by default: no recording.
  RoundLog* round_log = nullptr;
};

/// Validates the options (validate_partition_options, core/options.hpp)
/// and that req.algorithm names a registered algorithm; throws
/// std::invalid_argument otherwise.
void validate_request(const DecompositionRequest& req);

namespace detail {
/// Lift a compacted Decomposition into the owner/settle arrays of the
/// result contract (owner[v] = center of v's cluster, settle[v] =
/// dist-to-center). The canonical conversion, shared by the non-BFS
/// runners and DecompositionSession::load_cached.
void owner_settle_from_decomposition(const Decomposition& dec,
                                     DecompositionResult& out);
}  // namespace detail

/// Run `req` against an unweighted graph. Throws std::invalid_argument for
/// invalid requests and for algorithms that need edge weights. `workspace`
/// (optional) supplies reusable scratch; `basis` (optional) supplies
/// precomputed beta-independent shift draws — both leave the result
/// byte-identical to a cold call with the same request.
[[nodiscard]] DecompositionResult decompose(
    const CsrGraph& g, const DecompositionRequest& req,
    DecompositionWorkspace* workspace = nullptr,
    const ShiftBasis* basis = nullptr);

/// Run `req` against a weighted graph. Unweighted algorithms run on the
/// topology; weighted algorithms fill radii.
[[nodiscard]] DecompositionResult decompose(
    const WeightedCsrGraph& g, const DecompositionRequest& req,
    DecompositionWorkspace* workspace = nullptr,
    const ShiftBasis* basis = nullptr);

/// Run `req` against an out-of-core paged graph (storage/paged_graph.hpp).
/// Only "mpx" is served paged — the other algorithms have not been ported
/// to the templated traversal path — so any other algorithm id throws
/// std::invalid_argument. Owner/settle output is byte-identical to the
/// in-memory run for the same request at any thread count and any cache
/// budget; telemetry additionally carries the block-cache hit/miss/
/// eviction deltas of this run.
[[nodiscard]] DecompositionResult decompose(
    const storage::PagedGraph& g, const DecompositionRequest& req,
    DecompositionWorkspace* workspace = nullptr,
    const ShiftBasis* basis = nullptr);

}  // namespace mpx
