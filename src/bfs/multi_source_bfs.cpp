#include "bfs/multi_source_bfs.hpp"

#include "bfs/multi_source_bfs_impl.hpp"

namespace mpx {

// The algorithm body is graph-generic and lives in
// bfs/multi_source_bfs_impl.hpp (it also runs over storage::PagedGraph
// for out-of-core decompositions); this translation unit instantiates the
// in-memory entry point.
MultiSourceBfsResult delayed_multi_source_bfs(
    const CsrGraph& g, std::span<const std::uint32_t> start_round,
    std::span<const std::uint32_t> rank, std::uint32_t max_rounds,
    TraversalEngine engine, MultiSourceBfsWorkspace* workspace,
    RoundLog* log) {
  return detail::delayed_multi_source_bfs_impl(g, start_round, rank,
                                               max_rounds, engine, workspace,
                                               log);
}

}  // namespace mpx
