#include "baselines/ball_growing.hpp"

#include <numeric>
#include <vector>

#include "core/options.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace mpx {

Decomposition ball_growing_decomposition(const CsrGraph& g,
                                         const BallGrowingOptions& opt) {
  validate_partition_options(PartitionOptions{opt.beta});
  const vertex_t n = g.num_vertices();

  std::vector<vertex_t> owner(n, kInvalidVertex);
  std::vector<std::uint32_t> dist(n, 0);

  std::vector<vertex_t> order(n);
  if (opt.order == BallOrder::kRandom) {
    const std::vector<std::uint32_t> perm = random_permutation(n, opt.seed);
    order.assign(perm.begin(), perm.end());
  } else {
    std::iota(order.begin(), order.end(), 0u);
  }

  // The newest BFS level of the current ball, in discovery order, reused
  // across balls. owner[] already keeps every vertex out of a second
  // level, so a plain list is enough.
  std::vector<vertex_t> level;
  std::vector<vertex_t> next_level;

  // Absorb v into the ball rooted at `root`, returning the number of
  // undirected edges from v into the ball so far. Counting at insertion
  // time tallies each internal edge exactly once (at its later endpoint).
  const auto absorb = [&](vertex_t v, vertex_t root, std::uint32_t d,
                          std::vector<vertex_t>& into) -> edge_t {
    owner[v] = root;
    dist[v] = d;
    into.push_back(v);
    edge_t new_internal = 0;
    for (const vertex_t nbr : g.neighbors(v)) {
      if (owner[nbr] == root) ++new_internal;
    }
    return new_internal;
  };

  for (const vertex_t root : order) {
    if (owner[root] != kInvalidVertex) continue;

    level.clear();
    std::uint32_t radius = 0;
    edge_t internal_edges = absorb(root, root, 0, level);  // == 0 for root

    while (true) {
      // Only the newest level can touch unassigned vertices (all earlier
      // levels' unassigned neighbors were absorbed), so the ball boundary
      // into the remaining graph is exactly this frontier's out-arcs to
      // unassigned vertices. Arcs into previously carved pieces were paid
      // for by those pieces.
      edge_t boundary = 0;
      for (const vertex_t u : level) {
        for (const vertex_t nbr : g.neighbors(u)) {
          if (owner[nbr] == kInvalidVertex) ++boundary;
        }
      }
      // GVY stopping rule: carve once the boundary is within a beta
      // fraction of the volume swallowed (+1 seeds the charging argument).
      // Each expansion grows internal_edges+1 by a (1+beta) factor, so the
      // radius is at most log_{1+beta}(m+1) = O(log m / beta).
      if (static_cast<double>(boundary) <=
          opt.beta * (static_cast<double>(internal_edges) + 1.0)) {
        break;
      }
      ++radius;
      next_level.clear();
      for (const vertex_t u : level) {
        for (const vertex_t nbr : g.neighbors(u)) {
          if (owner[nbr] == kInvalidVertex) {
            internal_edges += absorb(nbr, root, radius, next_level);
          }
        }
      }
      std::swap(level, next_level);
    }
  }

  return Decomposition(owner, dist);
}

}  // namespace mpx
