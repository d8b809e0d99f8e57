// Tests for the delayed-start multi-source BFS — the engine of
// Algorithm 1. Covers start scheduling, rank tie-breaking, truncation,
// determinism across thread counts, and the work bound.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "support/random.hpp"
#include "bfs/multi_source_bfs.hpp"
#include "bfs/multi_source_bfs_impl.hpp"
#include "bfs/sequential_bfs.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_env.hpp"

namespace mpx {
namespace {

using namespace mpx::generators;

/// All vertices start at round 0 with rank = id: a plain multi-source
/// Voronoi with lexicographic ties.
MultiSourceBfsResult voronoi_all(const CsrGraph& g) {
  const vertex_t n = g.num_vertices();
  std::vector<std::uint32_t> start(n, 0);
  std::vector<std::uint32_t> rank(n);
  std::iota(rank.begin(), rank.end(), 0u);
  return delayed_multi_source_bfs(g, start, rank);
}

TEST(DelayedBfs, AllZeroStartsMakeEveryVertexItsOwnCenter) {
  const CsrGraph g = grid2d(4, 4);
  const MultiSourceBfsResult r = voronoi_all(g);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.owner[v], v);
    EXPECT_EQ(r.settle_round[v], 0u);
  }
  // Round 0 settles everyone; round 1 expands and finds nothing new.
  EXPECT_EQ(r.rounds, 2u);
}

TEST(DelayedBfs, SingleCenterIsPlainBfs) {
  const CsrGraph g = grid2d(9, 11);
  const vertex_t n = g.num_vertices();
  std::vector<std::uint32_t> start(n, kNoStart);
  std::vector<std::uint32_t> rank(n, 0);
  start[0] = 0;
  const MultiSourceBfsResult r = delayed_multi_source_bfs(g, start, rank);
  const auto expected = bfs_distances(g, 0);
  for (vertex_t v = 0; v < n; ++v) {
    EXPECT_EQ(r.owner[v], 0u);
    EXPECT_EQ(r.settle_round[v], expected[v]);
    EXPECT_EQ(r.dist_to_owner(v, start), expected[v]);
  }
}

TEST(DelayedBfs, TwoCentersSplitAPathByDistance) {
  const CsrGraph g = path(10);
  std::vector<std::uint32_t> start(10, kNoStart);
  std::vector<std::uint32_t> rank(10, 0);
  start[0] = 0;
  rank[0] = 0;
  start[9] = 0;
  rank[9] = 1;
  const MultiSourceBfsResult r = delayed_multi_source_bfs(g, start, rank);
  // Vertices 0..4 are closer to 0; vertex 4 and 5 are distance 4 from both
  // ends? dist(0,4)=4 < dist(9,4)=5, dist(0,5)=5 > dist(9,5)=4.
  for (vertex_t v = 0; v <= 4; ++v) EXPECT_EQ(r.owner[v], 0u) << v;
  for (vertex_t v = 5; v <= 9; ++v) EXPECT_EQ(r.owner[v], 9u) << v;
}

TEST(DelayedBfs, RankBreaksEquidistantTies) {
  const CsrGraph g = path(9);  // middle vertex 4 equidistant from 0 and 8
  std::vector<std::uint32_t> start(9, kNoStart);
  std::vector<std::uint32_t> rank(9, 0);
  start[0] = 0;
  start[8] = 0;
  rank[0] = 1;
  rank[8] = 0;  // 8 wins ties
  const MultiSourceBfsResult r = delayed_multi_source_bfs(g, start, rank);
  EXPECT_EQ(r.owner[4], 8u);

  rank[0] = 0;
  rank[8] = 1;  // now 0 wins ties
  const MultiSourceBfsResult r2 = delayed_multi_source_bfs(g, start, rank);
  EXPECT_EQ(r2.owner[4], 0u);
}

TEST(DelayedBfs, DelayedCenterLosesGroundProportionally) {
  const CsrGraph g = path(11);
  std::vector<std::uint32_t> start(11, kNoStart);
  std::vector<std::uint32_t> rank(11, 0);
  start[0] = 0;
  rank[0] = 0;
  start[10] = 4;  // handicapped by 4 rounds
  rank[10] = 1;
  const MultiSourceBfsResult r = delayed_multi_source_bfs(g, start, rank);
  // Vertex v is owned by 0 iff dist(0,v) < 4 + dist(10,v), i.e. v < (10+4)/2=7.
  for (vertex_t v = 0; v <= 6; ++v) EXPECT_EQ(r.owner[v], 0u) << v;
  for (vertex_t v = 8; v <= 10; ++v) EXPECT_EQ(r.owner[v], 10u) << v;
  // v = 7: dist(0,7)=7 = 4+dist(10,7)=4+3 -> tie, rank 0 wins.
  EXPECT_EQ(r.owner[7], 0u);
}

TEST(DelayedBfs, LateCenterNeverStartsIfAlreadyClaimed) {
  const CsrGraph g = path(5);
  std::vector<std::uint32_t> start(5, kNoStart);
  std::vector<std::uint32_t> rank(5, 0);
  start[0] = 0;
  rank[0] = 0;
  start[2] = 10;  // would start at round 10, but is claimed at round 2
  rank[2] = 1;
  const MultiSourceBfsResult r = delayed_multi_source_bfs(g, start, rank);
  for (vertex_t v = 0; v < 5; ++v) EXPECT_EQ(r.owner[v], 0u);
}

TEST(DelayedBfs, SettleRoundIsStartPlusDistance) {
  const CsrGraph g = grid2d(8, 8);
  const vertex_t n = g.num_vertices();
  std::vector<std::uint32_t> start(n, kNoStart);
  std::vector<std::uint32_t> rank(n, 0);
  start[0] = 3;
  const MultiSourceBfsResult r = delayed_multi_source_bfs(g, start, rank);
  const auto d = bfs_distances(g, 0);
  for (vertex_t v = 0; v < n; ++v) {
    EXPECT_EQ(r.settle_round[v], 3 + d[v]);
  }
}

TEST(DelayedBfs, MaxRoundsTruncatesTheSearch) {
  const CsrGraph g = path(20);
  std::vector<std::uint32_t> start(20, kNoStart);
  std::vector<std::uint32_t> rank(20, 0);
  start[0] = 0;
  const MultiSourceBfsResult r =
      delayed_multi_source_bfs(g, start, rank, /*max_rounds=*/5);
  for (vertex_t v = 0; v < 20; ++v) {
    if (v <= 4) {
      EXPECT_EQ(r.owner[v], 0u);
    } else {
      EXPECT_EQ(r.owner[v], kInvalidVertex);
      EXPECT_EQ(r.settle_round[v], kInfDist);
    }
  }
  EXPECT_LE(r.rounds, 5u);
}

TEST(DelayedBfs, NoCentersMeansNothingSettles) {
  const CsrGraph g = path(5);
  std::vector<std::uint32_t> start(5, kNoStart);
  std::vector<std::uint32_t> rank(5, 0);
  const MultiSourceBfsResult r = delayed_multi_source_bfs(g, start, rank);
  for (vertex_t v = 0; v < 5; ++v) EXPECT_EQ(r.owner[v], kInvalidVertex);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(DelayedBfs, OwnersAreAlwaysSelfOwned) {
  // Property: anyone who owns others owns itself (Lemma 4.1 closure).
  const CsrGraph g = erdos_renyi(300, 800, 5);
  const vertex_t n = g.num_vertices();
  std::vector<std::uint32_t> start(n);
  std::vector<std::uint32_t> rank(n);
  std::iota(rank.begin(), rank.end(), 0u);
  for (vertex_t v = 0; v < n; ++v) {
    start[v] = static_cast<std::uint32_t>(hash_stream(1, v) % 7);
  }
  const MultiSourceBfsResult r = delayed_multi_source_bfs(g, start, rank);
  for (vertex_t v = 0; v < n; ++v) {
    ASSERT_NE(r.owner[v], kInvalidVertex);
    EXPECT_EQ(r.owner[r.owner[v]], r.owner[v]);
  }
}

TEST(DelayedBfs, DeterministicAcrossThreadCounts) {
  const CsrGraph g = rmat(9, 5.0, 21);
  const vertex_t n = g.num_vertices();
  std::vector<std::uint32_t> start(n);
  std::vector<std::uint32_t> rank(n);
  std::iota(rank.begin(), rank.end(), 0u);
  for (vertex_t v = 0; v < n; ++v) {
    start[v] = static_cast<std::uint32_t>(hash_stream(2, v) % 10);
  }
  std::vector<vertex_t> owner_one;
  std::vector<vertex_t> owner_max;
  {
    ScopedNumThreads guard(1);
    owner_one = delayed_multi_source_bfs(g, start, rank).owner;
  }
  {
    ScopedNumThreads guard(max_threads());
    owner_max = delayed_multi_source_bfs(g, start, rank).owner;
  }
  EXPECT_EQ(owner_one, owner_max);
}

TEST(DelayedBfs, WorkIsLinearInArcs) {
  const CsrGraph g = grid2d(50, 50);
  const MultiSourceBfsResult r = voronoi_all(g);
  // Every vertex settles once and is expanded once: arcs scanned == 2m,
  // exactly — the counter is folded into the parallel expand phase but
  // must stay exact.
  EXPECT_EQ(r.arcs_scanned, g.num_arcs());
}

TEST(DelayedBfs, ArcsScannedExactAndEngineInvariant) {
  // Partial coverage (some vertices unreached via max_rounds): the counter
  // equals the settled vertices' degree sum for every engine.
  const CsrGraph g = grid2d(24, 24);
  const vertex_t n = g.num_vertices();
  std::vector<std::uint32_t> start(n, kNoStart);
  std::vector<std::uint32_t> rank(n, 0);
  start[0] = 0;
  start[n - 1] = 2;
  rank[n - 1] = 1;
  for (const TraversalEngine engine :
       {TraversalEngine::kPush, TraversalEngine::kPull,
        TraversalEngine::kAuto}) {
    SCOPED_TRACE(std::string(traversal_engine_name(engine)));
    const MultiSourceBfsResult r =
        delayed_multi_source_bfs(g, start, rank, /*max_rounds=*/9, engine);
    edge_t settled_degree = 0;
    for (vertex_t v = 0; v < n; ++v) {
      if (r.owner[v] != kInvalidVertex) {
        settled_degree += static_cast<edge_t>(g.degree(v));
      }
    }
    // Truncation stops before the last frontier expands, so the counter
    // covers exactly the frontiers that did expand: every settled vertex
    // except those still waiting in the final frontier.
    EXPECT_LE(r.arcs_scanned, settled_degree);
    const MultiSourceBfsResult full =
        delayed_multi_source_bfs(g, start, rank, kInfDist, engine);
    edge_t full_degree = 0;
    for (vertex_t v = 0; v < n; ++v) {
      if (full.owner[v] != kInvalidVertex) {
        full_degree += static_cast<edge_t>(g.degree(v));
      }
    }
    EXPECT_EQ(full.arcs_scanned, full_degree);
  }
}

TEST(DelayedBfs, DisconnectedComponentsEachGetOwners) {
  const CsrGraph g = disjoint_copies(cycle(6), 3);
  const vertex_t n = g.num_vertices();
  std::vector<std::uint32_t> start(n);
  std::vector<std::uint32_t> rank(n);
  std::iota(rank.begin(), rank.end(), 0u);
  for (vertex_t v = 0; v < n; ++v) {
    start[v] = static_cast<std::uint32_t>(hash_stream(3, v) % 5);
  }
  const MultiSourceBfsResult r = delayed_multi_source_bfs(g, start, rank);
  for (vertex_t v = 0; v < n; ++v) {
    ASSERT_NE(r.owner[v], kInvalidVertex);
    // Owner must live in the same component (same cycle of 6).
    EXPECT_EQ(r.owner[v] / 6, v / 6);
  }
}

TEST(DelayedBfs, ActivationScheduleGroupsCentersByStartRound) {
  // The schedule is a stable counting scatter: round t's bucket holds
  // exactly the vertices starting at t, ids ascending, at every width;
  // kNoStart vertices appear in no bucket.
  const std::size_t n = 30000;  // several chunks per thread
  std::vector<std::uint32_t> start(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint64_t h = hash_stream(11, v);
    start[v] = h % 7 == 0 ? kNoStart : static_cast<std::uint32_t>(h % 40);
  }
  std::vector<std::vector<vertex_t>> want(40);
  for (std::size_t v = 0; v < n; ++v) {
    if (start[v] != kNoStart) {
      want[start[v]].push_back(static_cast<vertex_t>(v));
    }
  }
  while (want.back().empty()) want.pop_back();
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedNumThreads guard(threads);
    MultiSourceBfsWorkspace ws;
    const detail::ActivationBuckets b = detail::build_buckets(start, ws);
    ASSERT_EQ(b.max_round + 1, want.size());
    for (std::uint32_t t = 0; t <= b.max_round + 1; ++t) {
      const auto got = b.bucket(t);
      const std::vector<vertex_t> expect =
          t < want.size() ? want[t] : std::vector<vertex_t>{};
      EXPECT_EQ(std::vector<vertex_t>(got.begin(), got.end()), expect)
          << "round " << t;
    }
  }
  MultiSourceBfsWorkspace ws;
  const std::vector<std::uint32_t> none(100, kNoStart);
  EXPECT_TRUE(detail::build_buckets(none, ws).empty());
}

}  // namespace
}  // namespace mpx
