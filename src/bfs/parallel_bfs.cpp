#include "bfs/parallel_bfs.hpp"

#include <algorithm>

#include "bfs/traversal.hpp"
#include "parallel/atomics.hpp"
#include "support/assert.hpp"

namespace mpx {
namespace {

/// Plain BFS claim semantics for the traversal engine: first search to
/// reach a vertex wins. Push claims race on a parent CAS, whose one winner
/// emits the candidate; pull scans the neighbors of an unvisited vertex for
/// one settled at the previous level and adopts it, writing without
/// atomics.
struct PlainBfsVisitor {
  const CsrGraph& g;
  std::span<const vertex_t> sources;
  ParallelBfsResult& result;

  [[nodiscard]] std::span<const vertex_t> activations(std::uint32_t t) const {
    return t == 0 ? sources : std::span<const vertex_t>{};
  }

  [[nodiscard]] bool activations_done(std::uint32_t t) const {
    return sources.empty() || t > 0;
  }

  [[nodiscard]] bool settled(vertex_t v) const {
    return atomic_load(result.dist[v]) != kInfDist;
  }

  template <bool /*Shared*/>
  bool offer_self(vertex_t s) {
    // Sources keep parent == kInvalidVertex; dist is written at settle.
    return !settled(s);
  }

  template <bool /*Shared*/, typename Emit>
  void expand(vertex_t u, Emit&& emit) {
    for (const vertex_t v : g.neighbors(u)) {
      if (settled(v)) continue;
      if (atomic_claim(result.parent[v], kInvalidVertex, u)) emit(v);
    }
  }

  bool pull(vertex_t v, std::uint32_t t) {
    const std::uint32_t prev = t - 1;
    for (const vertex_t u : g.neighbors(v)) {
      if (atomic_load(result.dist[u]) == prev) {
        result.parent[v] = u;
        atomic_store(result.dist[v], t);
        return true;
      }
    }
    return false;
  }

  void settle(vertex_t v, std::uint32_t t) { result.dist[v] = t; }
};

}  // namespace

ParallelBfsResult parallel_bfs_multi(const CsrGraph& g,
                                     std::span<const vertex_t> sources,
                                     BfsStrategy strategy) {
  const vertex_t n = g.num_vertices();
  for (const vertex_t s : sources) MPX_EXPECTS(s < n);

  ParallelBfsResult result;
  result.dist.assign(n, kInfDist);
  result.parent.assign(n, kInvalidVertex);

  PlainBfsVisitor vis{g, sources, result};
  TraversalParams params;
  params.engine = strategy == BfsStrategy::kDirectionOptimizing
                      ? TraversalEngine::kAuto
                      : TraversalEngine::kPush;
  const TraversalStats stats = run_traversal(g, vis, params);
  // The engine counts the round-0 source activation; the historical
  // ParallelBfsResult convention counts expansion levels only.
  result.rounds = stats.rounds == 0 ? 0 : stats.rounds - 1;
  return result;
}

ParallelBfsResult parallel_bfs(const CsrGraph& g, vertex_t source,
                               BfsStrategy strategy) {
  return parallel_bfs_multi(g, std::span<const vertex_t>(&source, 1),
                            strategy);
}

}  // namespace mpx
