// Delayed-start multi-source BFS with owner tracking: the engine behind
// Algorithm 1 of the paper.
//
// Every vertex may be a BFS source ("center"). Center c wakes up at round
// start_round[c] (= floor(delta_max - delta_c) for the exponential-shift
// partition) and, if no other center's search has claimed c yet, it starts
// a breadth-first search of its own. Searches advance one hop per round.
// When several searches reach an unclaimed vertex in the same round, the
// center with the smallest rank wins; rank encodes the fractional parts of
// the shifts (Section 5: "the fractional parts can be viewed as a
// lexicographical ordering upon all vertices which are used for tie
// breaking") or any other total order such as a random permutation.
//
// The run is deterministic for fixed (start_round, rank) regardless of the
// number of threads: every cross-thread race is an atomic min over a packed
// (rank, center) word, whose outcome is schedule-independent.
//
// Work O(m + n): each vertex settles once and its arcs are scanned once.
// Depth: one parallel round per BFS level, i.e. O(max start + max BFS
// depth) rounds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bfs/traversal.hpp"
#include "graph/csr_graph.hpp"
#include "support/types.hpp"

namespace mpx {

/// start_round value meaning "this vertex never self-activates" (it can
/// still be claimed by other centers' searches).
inline constexpr std::uint32_t kNoStart = kInfDist;

struct MultiSourceBfsResult {
  /// owner[v]: center whose search claimed v; kInvalidVertex if unreached.
  std::vector<vertex_t> owner;
  /// settle_round[v]: global round at which v was claimed
  /// (= start_round[owner] + dist(owner, v)); kInfDist if unreached.
  std::vector<std::uint32_t> settle_round;
  /// Number of parallel rounds executed (the depth proxy of experiment E3).
  std::uint32_t rounds = 0;
  /// How many of those rounds the traversal engine ran bottom-up.
  std::uint32_t pull_rounds = 0;
  /// Arcs scanned while expanding settled vertices (work proxy, O(m)).
  /// Exact: equals the sum of deg(v) over settled vertices when the run
  /// reaches quiescence, independent of the engine choice.
  edge_t arcs_scanned = 0;

  /// Graph distance from v to its owning center, recovered from the global
  /// clock. Requires v reached.
  [[nodiscard]] std::uint32_t dist_to_owner(
      vertex_t v, std::span<const std::uint32_t> start_round) const {
    return settle_round[v] - start_round[owner[v]];
  }
};

/// Reusable scratch for delayed_multi_source_bfs: the per-vertex claim
/// words, the activation-bucket schedule, and the traversal engine's
/// frontier/unsettled structures. Repeated runs over graphs of similar size
/// re-initialize these in place instead of reallocating ~18n bytes per
/// call. A default-constructed workspace holds no storage; the first run
/// sizes it. Not thread-safe; one workspace per thread.
struct MultiSourceBfsWorkspace {
  TraversalWorkspace traversal;
  std::vector<std::uint64_t> claim;
  std::vector<vertex_t> bucket_centers;
  std::vector<std::uint32_t> bucket_ends;
  std::vector<std::uint32_t> bucket_cursors;
};

/// Run the delayed multi-source BFS on the shared traversal engine.
/// Rounds beyond `max_rounds` are not executed (vertices not yet settled
/// stay unreached); the default runs to quiescence. The engine choice
/// (push / pull / direction-optimizing auto) changes only the schedule,
/// never the result: owner and settle_round are byte-identical across
/// engines and thread counts. `workspace`, when non-null, supplies the
/// scratch buffers (the result is identical with or without it). `log`,
/// when non-null, receives one record per executed round (RoundLog).
///
/// Preconditions: start_round.size() == rank.size() == n; every vertex with
/// start_round != kNoStart has a rank, and ranks of such centers are
/// pairwise distinct (ties must be impossible for determinism).
[[nodiscard]] MultiSourceBfsResult delayed_multi_source_bfs(
    const CsrGraph& g, std::span<const std::uint32_t> start_round,
    std::span<const std::uint32_t> rank,
    std::uint32_t max_rounds = kInfDist,
    TraversalEngine engine = TraversalEngine::kAuto,
    MultiSourceBfsWorkspace* workspace = nullptr, RoundLog* log = nullptr);

}  // namespace mpx
