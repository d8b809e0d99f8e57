// Tests for the frontier/traversal subsystem: the Frontier dual
// representation itself, and the engine contract — push, pull, and auto
// must produce byte-identical owner / settle_round arrays (and identical
// round and arc counters) for fixed seeds on every fixture family.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "bfs/frontier.hpp"
#include "bfs/multi_source_bfs.hpp"
#include "bfs/parallel_bfs.hpp"
#include "bfs/sequential_bfs.hpp"
#include "bfs/traversal.hpp"
#include "core/partition.hpp"
#include "core/shifts.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_env.hpp"
#include "support/random.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/invariants.hpp"
#include "tests/support/property.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace mpx {
namespace {

using namespace mpx::generators;

constexpr TraversalEngine kEngines[] = {
    TraversalEngine::kPush, TraversalEngine::kPull, TraversalEngine::kAuto};

// ---------------------------------------------------------------------------
// Frontier representation
// ---------------------------------------------------------------------------

/// The pack steps as a team of one runs them.
void pack(Frontier& f) {
  f.pack_count(0, 1);
  f.pack_place(0, 1);
  f.pack_extract(0, 1);
}

TEST(Frontier, StartsEmpty) {
  Frontier f(100);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.universe(), 100u);
  EXPECT_TRUE(f.vertices().empty());
}

TEST(Frontier, MarkDedupsAndPacksAscending) {
  Frontier f(200);
  EXPECT_TRUE(f.mark<false>(199, 0));  // last vertex
  EXPECT_TRUE(f.mark<false>(7, 0));
  EXPECT_TRUE(f.mark<false>(64, 0));   // second bitmap word
  EXPECT_FALSE(f.mark<false>(7, 0));   // duplicate
  EXPECT_TRUE(f.empty());              // members change only at a pack
  pack(f);
  EXPECT_EQ(f.size(), 3u);
  const auto verts = f.vertices();
  EXPECT_EQ(std::vector<vertex_t>(verts.begin(), verts.end()),
            (std::vector<vertex_t>{7, 64, 199}));
}

// Marks duplicates from every thread of a team, then packs in team steps
// with barriers, as run_traversal does. Returns the members and checks
// that the per-part slices tile them in order.
std::vector<vertex_t> team_mark_and_pack(Frontier& f,
                                         const std::vector<vertex_t>& vs) {
  std::vector<std::span<const vertex_t>> slices(
      static_cast<std::size_t>(num_threads()));
  std::size_t parts = 1;
#pragma omp parallel
  {
#if defined(_OPENMP)
    const std::size_t me = static_cast<std::size_t>(omp_get_thread_num());
    const std::size_t team = static_cast<std::size_t>(omp_get_num_threads());
#else
    const std::size_t me = 0;
    const std::size_t team = 1;
#endif
#pragma omp for schedule(dynamic, 7)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(2 * vs.size());
         ++i) {
      f.mark(vs[static_cast<std::size_t>(i) % vs.size()], me);
    }
    f.pack_count(me, team);
#pragma omp barrier
    f.pack_place(me, team);
#pragma omp barrier
    slices[me] = f.pack_extract(me, team);
#pragma omp single
    parts = team;
  }
  const auto verts = f.vertices();
  const vertex_t* at = verts.data();
  for (std::size_t p = 0; p < parts; ++p) {
    EXPECT_EQ(slices[p].data(), at) << "part " << p;
    at += slices[p].size();
  }
  EXPECT_EQ(at, verts.data() + verts.size());
  return {verts.begin(), verts.end()};
}

TEST(Frontier, TeamMarkThenPackIsSortedAndDeduped) {
  // Straddle several 4096-vertex blocks and offer every member twice from
  // a parallel loop — the packed list must be the sorted set regardless of
  // schedule, with each part's slice in place.
  const vertex_t n = 3 * 4096 + 123;
  std::vector<vertex_t> members;
  for (vertex_t v = 0; v < n; v += 3) members.push_back(v);
  Frontier f(n, static_cast<std::size_t>(num_threads()));
  EXPECT_EQ(team_mark_and_pack(f, members), members);
}

TEST(Frontier, TeamPackMatchesSerialPackAtEveryWidth) {
  Xoshiro256pp rng(17);
  const vertex_t n = 70000;
  std::vector<vertex_t> vs(5000);
  for (auto& v : vs) v = static_cast<vertex_t>(rng.next_below(n));
  Frontier serial(n);
  for (const vertex_t v : vs) serial.mark<false>(v, 0);
  pack(serial);
  const std::vector<vertex_t> expected(serial.vertices().begin(),
                                       serial.vertices().end());
  ASSERT_TRUE(std::is_sorted(expected.begin(), expected.end()));
  for (const int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedNumThreads guard(threads);
    Frontier f(n, static_cast<std::size_t>(threads));
    EXPECT_EQ(team_mark_and_pack(f, vs), expected);
  }
}

TEST(Frontier, MarkWordMatchesPerBitMarks) {
  Frontier a(300);
  Frontier b(300);
  const std::uint64_t bits = 0xDEADBEEFCAFE1234ULL;
  a.mark_word(2, bits, 0);
  for (unsigned i = 0; i < 64; ++i) {
    if ((bits >> i) & 1u) b.mark(static_cast<vertex_t>(2 * 64 + i), 0);
  }
  pack(a);
  pack(b);
  const auto av = a.vertices();
  const auto bv = b.vertices();
  EXPECT_EQ(av.size(), static_cast<std::size_t>(std::popcount(bits)));
  EXPECT_EQ(std::vector<vertex_t>(av.begin(), av.end()),
            std::vector<vertex_t>(bv.begin(), bv.end()));
}

TEST(Frontier, PackLeavesCleanMarksForTheNextRound) {
  Frontier f(10000);
  for (vertex_t v = 0; v < 10000; v += 7) f.mark(v, 0);
  pack(f);
  EXPECT_GT(f.size(), 0u);
  // The next pack holds only what was marked since the last one.
  EXPECT_TRUE(f.mark<false>(4242, 0));
  pack(f);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.vertices()[0], 4242u);
  pack(f);
  EXPECT_TRUE(f.empty());
}

TEST(Frontier, WordBoundaryUniverses) {
  for (const vertex_t n : {1u, 63u, 64u, 65u, 4096u, 4097u}) {
    Frontier f(n);
    for (vertex_t v = 0; v < n; ++v) f.mark(v, 0);
    pack(f);
    EXPECT_EQ(f.size(), static_cast<std::size_t>(n)) << "n=" << n;
    pack(f);
    EXPECT_TRUE(f.empty());
  }
}

// ---------------------------------------------------------------------------
// Engine identity: push == pull == auto, bit for bit
// ---------------------------------------------------------------------------

Shifts shifts_for(vertex_t n, double beta, std::uint64_t seed) {
  PartitionOptions opt;
  opt.beta = beta;
  opt.seed = seed;
  return generate_shifts(n, opt);
}

TEST(TraversalEngines, IdenticalDelayedBfsAcrossFixtureFamilies) {
  for (const auto& [name, g] : mpx::testing::canonical_graphs()) {
    for (const std::uint64_t seed : {3u, 11u}) {
      SCOPED_TRACE(name + " seed=" + std::to_string(seed));
      const Shifts shifts = shifts_for(g.num_vertices(), 0.2, seed);
      const MultiSourceBfsResult push = delayed_multi_source_bfs(
          g, shifts.start_round, shifts.rank, kInfDist,
          TraversalEngine::kPush);
      for (const TraversalEngine engine :
           {TraversalEngine::kPull, TraversalEngine::kAuto}) {
        const MultiSourceBfsResult other = delayed_multi_source_bfs(
            g, shifts.start_round, shifts.rank, kInfDist, engine);
        ASSERT_EQ(other.owner, push.owner)
            << traversal_engine_name(engine);
        ASSERT_EQ(other.settle_round, push.settle_round)
            << traversal_engine_name(engine);
        EXPECT_EQ(other.rounds, push.rounds);
        EXPECT_EQ(other.arcs_scanned, push.arcs_scanned);
      }
    }
  }
}

TEST(TraversalEngines, IdenticalOnDegenerateInputs) {
  for (const auto& [name, g] : mpx::testing::degenerate_graphs()) {
    SCOPED_TRACE(name);
    const Shifts shifts = shifts_for(g.num_vertices(), 0.5, 1);
    const MultiSourceBfsResult push = delayed_multi_source_bfs(
        g, shifts.start_round, shifts.rank, kInfDist, TraversalEngine::kPush);
    for (const TraversalEngine engine :
         {TraversalEngine::kPull, TraversalEngine::kAuto}) {
      const MultiSourceBfsResult other = delayed_multi_source_bfs(
          g, shifts.start_round, shifts.rank, kInfDist, engine);
      EXPECT_EQ(other.owner, push.owner);
      EXPECT_EQ(other.settle_round, push.settle_round);
      EXPECT_EQ(other.rounds, push.rounds);
    }
  }
}

TEST(TraversalEngines, IdenticalUnderRoundTruncation) {
  const CsrGraph g = grid2d(30, 30);
  const Shifts shifts = shifts_for(g.num_vertices(), 0.05, 9);
  for (const std::uint32_t max_rounds : {0u, 1u, 3u, 10u}) {
    SCOPED_TRACE("max_rounds=" + std::to_string(max_rounds));
    const MultiSourceBfsResult push = delayed_multi_source_bfs(
        g, shifts.start_round, shifts.rank, max_rounds,
        TraversalEngine::kPush);
    for (const TraversalEngine engine :
         {TraversalEngine::kPull, TraversalEngine::kAuto}) {
      const MultiSourceBfsResult other = delayed_multi_source_bfs(
          g, shifts.start_round, shifts.rank, max_rounds, engine);
      EXPECT_EQ(other.owner, push.owner);
      EXPECT_EQ(other.settle_round, push.settle_round);
    }
  }
}

TEST(TraversalEngines, PartitionIdenticalThroughOptions) {
  const CsrGraph g = rmat(10, 5.0, 23);
  PartitionOptions opt;
  opt.beta = 0.15;
  opt.seed = 77;
  opt.engine = TraversalEngine::kPush;
  const Decomposition push = partition(g, opt);
  for (const TraversalEngine engine :
       {TraversalEngine::kPull, TraversalEngine::kAuto}) {
    opt.engine = engine;
    const Decomposition other = partition(g, opt);
    ASSERT_EQ(std::vector<cluster_t>(other.assignment().begin(),
                                     other.assignment().end()),
              std::vector<cluster_t>(push.assignment().begin(),
                                     push.assignment().end()));
    ASSERT_EQ(std::vector<vertex_t>(other.centers().begin(),
                                    other.centers().end()),
              std::vector<vertex_t>(push.centers().begin(),
                                    push.centers().end()));
    EXPECT_TRUE(mpx::testing::check_decomposition_invariants(
        other, g, {.beta = 0.15}));
  }
}

TEST(TraversalEngines, IdenticalAtScaleWithRealPullRounds) {
  // Regression: the small fixtures above never leave the engine's serial
  // round path, so kAuto never actually pulls there. This graph is large
  // and skewed enough that auto executes genuine pull rounds AND returns
  // to push afterwards — the transition once dropped the pull round's
  // frontier on the floor (stale-valid sparse view) and produced owners
  // that diverged from push.
  const CsrGraph g = rmat(16, 8.0, 1);
  const Shifts shifts = shifts_for(g.num_vertices(), 0.1, 2013);
  const MultiSourceBfsResult push = delayed_multi_source_bfs(
      g, shifts.start_round, shifts.rank, kInfDist, TraversalEngine::kPush);
  const MultiSourceBfsResult autod = delayed_multi_source_bfs(
      g, shifts.start_round, shifts.rank, kInfDist, TraversalEngine::kAuto);
  // The scenario must actually exercise the pull machinery and the
  // pull->push handoff (pull rounds strictly inside the round range).
  ASSERT_GT(autod.pull_rounds, 0u);
  ASSERT_LT(autod.pull_rounds, autod.rounds);
  EXPECT_EQ(autod.owner, push.owner);
  EXPECT_EQ(autod.settle_round, push.settle_round);
  EXPECT_EQ(autod.rounds, push.rounds);
  EXPECT_EQ(autod.arcs_scanned, push.arcs_scanned);
}

TEST(TraversalEngines, RandomizedPropertyIdentity) {
  mpx::testing::for_each_seed(5, [](std::uint64_t seed) {
    Xoshiro256pp rng(seed);
    const CsrGraph g = mpx::testing::random_graph(rng, 1500, 6.0);
    const Shifts shifts = shifts_for(g.num_vertices(), 0.25, seed);
    const MultiSourceBfsResult push = delayed_multi_source_bfs(
        g, shifts.start_round, shifts.rank, kInfDist, TraversalEngine::kPush);
    const MultiSourceBfsResult pull = delayed_multi_source_bfs(
        g, shifts.start_round, shifts.rank, kInfDist, TraversalEngine::kPull);
    const MultiSourceBfsResult autod = delayed_multi_source_bfs(
        g, shifts.start_round, shifts.rank, kInfDist, TraversalEngine::kAuto);
    EXPECT_EQ(push.owner, pull.owner);
    EXPECT_EQ(push.owner, autod.owner);
    EXPECT_EQ(push.settle_round, pull.settle_round);
    EXPECT_EQ(push.settle_round, autod.settle_round);
  });
}

// ---------------------------------------------------------------------------
// Work accounting: arcs_scanned is exact, engine-independent
// ---------------------------------------------------------------------------

TEST(TraversalEngines, ArcsScannedExactlySumsSettledDegrees) {
  for (const auto& [name, g] : mpx::testing::canonical_graphs()) {
    const Shifts shifts = shifts_for(g.num_vertices(), 0.2, 5);
    for (const TraversalEngine engine : kEngines) {
      SCOPED_TRACE(name + " engine=" +
                   std::string(traversal_engine_name(engine)));
      const MultiSourceBfsResult r = delayed_multi_source_bfs(
          g, shifts.start_round, shifts.rank, kInfDist, engine);
      edge_t expected = 0;
      for (vertex_t v = 0; v < g.num_vertices(); ++v) {
        if (r.owner[v] != kInvalidVertex) {
          expected += static_cast<edge_t>(g.degree(v));
        }
      }
      EXPECT_EQ(r.arcs_scanned, expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Plain BFS on the engine
// ---------------------------------------------------------------------------

TEST(TraversalEngines, PlainBfsStrategiesAgreeWithSequential) {
  for (const auto& [name, g] : mpx::testing::canonical_graphs()) {
    if (g.num_vertices() == 0) continue;
    SCOPED_TRACE(name);
    const auto expected = bfs_distances(g, 0);
    const ParallelBfsResult top = parallel_bfs(g, 0, BfsStrategy::kTopDown);
    const ParallelBfsResult opt =
        parallel_bfs(g, 0, BfsStrategy::kDirectionOptimizing);
    EXPECT_EQ(top.dist, expected);
    EXPECT_EQ(opt.dist, expected);
    EXPECT_EQ(top.rounds, opt.rounds);
  }
}

}  // namespace
}  // namespace mpx
