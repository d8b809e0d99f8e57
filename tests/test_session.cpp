// Tests for DecompositionSession (core/session.hpp): snapshot-backed
// construction, request-keyed caching, batch multi-beta runs sharing one
// shift basis, query answering (cluster-of / boundary / distance oracle),
// and persistence of cached results with their telemetry. Also covers
// SharedResultStore, the thread-safe cache under the session and the
// server: single-flight concurrent acquires, entries that build their
// boundary list and oracle once on first use, bitwise identity with
// session answers, warm loads, and the clear()-with-outstanding-references
// lifetime contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "bfs/sequential_bfs.hpp"
#include "core/decomposer.hpp"
#include "core/session.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "parallel/thread_env.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/temp_dir.hpp"

namespace mpx {
namespace {

DecompositionRequest request(double beta, std::uint64_t seed = 42,
                             const char* algorithm = "mpx") {
  DecompositionRequest req;
  req.algorithm = algorithm;
  req.beta = beta;
  req.seed = seed;
  return req;
}

TEST(Session, RunMatchesFreeFacadeAndCaches) {
  const CsrGraph g = generators::grid2d(30, 30);
  DecompositionSession session((CsrGraph(g)));
  const DecompositionRequest req = request(0.2);

  EXPECT_EQ(session.cached(req), nullptr);
  const DecompositionResult& first = session.run(req);
  const DecompositionResult direct = decompose(g, req);
  EXPECT_EQ(first.owner, direct.owner);
  EXPECT_EQ(first.settle, direct.settle);

  // Second run returns the same cached object, not a recomputation.
  const DecompositionResult& second = session.run(req);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(session.cache_size(), 1u);
  EXPECT_EQ(session.cached(req), &first);

  // A different request is a different entry.
  (void)session.run(request(0.5));
  EXPECT_EQ(session.cache_size(), 2u);
  session.clear_cache();
  EXPECT_EQ(session.cache_size(), 0u);
  EXPECT_EQ(session.cached(req), nullptr);
}

TEST(Session, OpenSnapshotServesTheGraphZeroCopy) {
  mpx::testing::TempDir dir("mpx_session");
  const CsrGraph g = generators::grid2d(12, 9);
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, g);

  DecompositionSession session = DecompositionSession::open_snapshot(path);
  EXPECT_FALSE(session.weighted());
  EXPECT_EQ(session.topology().num_vertices(), g.num_vertices());
  EXPECT_FALSE(session.topology().owns_storage());  // mmap view

  const DecompositionRequest req = request(0.3);
  const DecompositionResult& result = session.run(req);
  EXPECT_EQ(result.owner, decompose(g, req).owner);
}

TEST(Session, OpenWeightedSnapshotSelectsWeightedGraph) {
  mpx::testing::TempDir dir("mpx_session");
  const WeightedCsrGraph wg = mpx::testing::grid3x3_weighted_reference();
  const std::string path = dir.file("grid_w.mpxs");
  io::save_snapshot(path, wg);

  DecompositionSession session = DecompositionSession::open_snapshot(path);
  EXPECT_TRUE(session.weighted());
  const DecompositionRequest req = request(0.4, 7, "mpx-weighted");
  const DecompositionResult& result = session.run(req);
  EXPECT_TRUE(result.weighted());
  EXPECT_EQ(result.radii, decompose(wg, req).radii);
}

TEST(Session, BatchMatchesIndividualRunsBitwise) {
  const CsrGraph g = generators::grid2d(40, 40);
  const double betas[] = {0.5, 0.2, 0.1, 0.05};

  DecompositionSession batch_session((CsrGraph(g)));
  const auto batch = batch_session.run_batch(request(0.0), betas);
  ASSERT_EQ(batch.size(), 4u);

  for (std::size_t i = 0; i < std::size(betas); ++i) {
    SCOPED_TRACE("beta=" + std::to_string(betas[i]));
    const DecompositionResult individual = decompose(g, request(betas[i]));
    EXPECT_EQ(batch[i]->owner, individual.owner);
    EXPECT_EQ(batch[i]->settle, individual.settle);
  }
  EXPECT_EQ(batch_session.cache_size(), 4u);

  // A second batch over an overlapping beta set reuses the cache.
  const double more[] = {0.2, 0.07};
  const auto again = batch_session.run_batch(request(0.0), more);
  EXPECT_EQ(again[0], batch[1]);
  EXPECT_EQ(batch_session.cache_size(), 5u);
}

TEST(Session, BatchValidatesEveryBetaUpFront) {
  DecompositionSession session(generators::grid2d(5, 5));
  const double betas[] = {0.5, 0.0};
  EXPECT_THROW((void)session.run_batch(request(0.1), betas),
               std::invalid_argument);
  EXPECT_EQ(session.cache_size(), 0u);  // nothing half-executed
}

TEST(Session, ClusterQueriesAgreeWithTheResult) {
  const CsrGraph g = generators::grid2d(20, 20);
  DecompositionSession session((CsrGraph(g)));
  const DecompositionRequest req = request(0.3);
  const DecompositionResult& result = session.run(req);

  for (vertex_t v = 0; v < g.num_vertices(); v += 17) {
    EXPECT_EQ(session.cluster_of(v, req), result.cluster_of(v));
    EXPECT_EQ(session.owner_of(v, req), result.owner[v]);
  }
  EXPECT_EQ(session.num_clusters(req), result.num_clusters());
}

TEST(Session, BoundaryArcsAreExactlyTheCutEdges) {
  const CsrGraph g = generators::grid2d(15, 15);
  DecompositionSession session((CsrGraph(g)));
  const DecompositionRequest req = request(0.4);
  const DecompositionResult& result = session.run(req);

  const std::span<const Edge> boundary = session.boundary_arcs(req);
  std::set<std::pair<vertex_t, vertex_t>> expected;
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    for (const vertex_t v : g.neighbors(u)) {
      if (u < v && result.owner[u] != result.owner[v]) {
        expected.insert({u, v});
      }
    }
  }
  ASSERT_EQ(boundary.size(), expected.size());
  for (const Edge& e : boundary) {
    EXPECT_TRUE(expected.count({e.u, e.v})) << e.u << "-" << e.v;
  }
  // Second call returns the cached list (same address).
  EXPECT_EQ(session.boundary_arcs(req).data(), boundary.data());
}

TEST(Session, DistanceEstimatesMatchAStandaloneOracle) {
  const CsrGraph g = generators::grid2d(18, 18);
  DecompositionSession session((CsrGraph(g)));
  const DecompositionRequest req = request(0.25);
  const DecompositionResult& result = session.run(req);

  const DistanceOracle oracle(g, Decomposition(result.decomposition));
  for (vertex_t u = 0; u < g.num_vertices(); u += 41) {
    for (vertex_t v = 0; v < g.num_vertices(); v += 37) {
      EXPECT_EQ(session.estimate_distance(u, v, req), oracle.estimate(u, v));
    }
  }
  // Estimates never undershoot the true distance (they are realized paths).
  const std::vector<std::uint32_t> exact = bfs_distances(g, 0);
  for (vertex_t v = 0; v < g.num_vertices(); v += 23) {
    EXPECT_GE(session.estimate_distance(0, v, req), exact[v]);
  }
}

TEST(Session, DistanceQueriesRejectWeightedResults) {
  DecompositionSession session(mpx::testing::grid3x3_weighted_reference());
  const DecompositionRequest req = request(0.4, 1, "mpx-weighted");
  EXPECT_THROW((void)session.estimate_distance(0, 1, req),
               std::invalid_argument);
}

TEST(Session, SaveAndReloadCachedResultAcrossSessions) {
  mpx::testing::TempDir dir("mpx_session");
  const std::string path = dir.file("cached.dec");
  const CsrGraph g = generators::grid2d(10, 10);
  const DecompositionRequest req = request(0.3, 9);

  RunTelemetry saved_telemetry;
  {
    DecompositionSession session((CsrGraph(g)));
    (void)session.run(req);
    saved_telemetry = session.run(req).telemetry;
    session.save_cached(req, path);
  }

  DecompositionSession restored((CsrGraph(g)));
  EXPECT_FALSE(restored.load_cached(req, dir.file("missing.dec")));
  ASSERT_TRUE(restored.load_cached(req, path));
  EXPECT_EQ(restored.cache_size(), 1u);

  const DecompositionResult* cached = restored.cached(req);
  ASSERT_NE(cached, nullptr);
  const DecompositionResult direct = decompose(g, req);
  EXPECT_EQ(cached->owner, direct.owner);
  EXPECT_EQ(cached->settle, direct.settle);
  // The telemetry block survived the round trip.
  EXPECT_EQ(cached->telemetry, saved_telemetry);
  // Queries work off the restored entry without recomputation.
  EXPECT_EQ(restored.num_clusters(req), direct.num_clusters());
}

TEST(Session, PersistenceRejectsWeightedAlgorithms) {
  mpx::testing::TempDir dir("mpx_session");
  DecompositionSession session(mpx::testing::grid3x3_weighted_reference());
  const DecompositionRequest req = request(0.4, 1, "mpx-weighted");
  EXPECT_THROW(session.save_cached(req, dir.file("w.dec")),
               std::invalid_argument);
  // load_cached mirrors the guard even before touching the file: a text
  // decomposition can never restore real-valued radii shape-consistently.
  EXPECT_THROW((void)session.load_cached(req, dir.file("absent.dec")),
               std::invalid_argument);
}

TEST(Session, LoadCachedRejectsAlgorithmMismatch) {
  mpx::testing::TempDir dir("mpx_session");
  const std::string path = dir.file("cached.dec");
  const CsrGraph g = generators::grid2d(8, 8);
  {
    DecompositionSession session((CsrGraph(g)));
    session.save_cached(request(0.3), path);  // telemetry says "mpx"
  }
  DecompositionSession other((CsrGraph(g)));
  EXPECT_THROW((void)other.load_cached(request(0.3, 42, "ball-growing"), path),
               std::runtime_error);
}

TEST(Session, LoadCachedKeepsResidentEntriesAlive) {
  mpx::testing::TempDir dir("mpx_session");
  const std::string path = dir.file("cached.dec");
  const CsrGraph g = generators::grid2d(8, 8);
  const DecompositionRequest req = request(0.3);
  DecompositionSession session((CsrGraph(g)));
  session.save_cached(req, path);
  const DecompositionResult& resident = session.run(req);
  // Loading over a resident entry is a no-op: the computed result equals
  // the file (determinism), and outstanding references stay valid.
  ASSERT_TRUE(session.load_cached(req, path));
  EXPECT_EQ(&session.run(req), &resident);
}

TEST(Session, LoadCachedRejectsMismatchedGraph) {
  mpx::testing::TempDir dir("mpx_session");
  const std::string path = dir.file("cached.dec");
  const DecompositionRequest req = request(0.3);
  {
    DecompositionSession session(generators::grid2d(10, 10));
    session.save_cached(req, path);
  }
  DecompositionSession other(generators::grid2d(4, 4));
  EXPECT_THROW((void)other.load_cached(req, path), std::runtime_error);
}

TEST(Session, UnweightedAlgorithmsRunOnWeightedSessions) {
  DecompositionSession session(mpx::testing::grid3x3_weighted_reference());
  const DecompositionRequest req = request(0.5, 3);
  const DecompositionResult& result = session.run(req);
  EXPECT_FALSE(result.weighted());
  const DecompositionResult direct =
      decompose(mpx::testing::grid3x3_weighted_reference().topology(), req);
  EXPECT_EQ(result.owner, direct.owner);
}

// --- SharedResultStore ------------------------------------------------------

TEST(SharedStore, AcquireMatchesSessionAndCachesFleetWide) {
  const CsrGraph g = generators::grid2d(20, 20);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.3);

  EXPECT_EQ(store.cached(req), nullptr);
  const SharedResultStore::Acquired cold = store.acquire(req);
  ASSERT_NE(cold.entry, nullptr);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_EQ(store.computes(), 1u);
  EXPECT_EQ(store.size(), 1u);

  // The entry answers exactly like a session over the same graph (results
  // are deterministic in the request).
  DecompositionSession session((CsrGraph(g)));
  const DecompositionResult& expected = session.run(req);
  EXPECT_EQ(cold.entry->result().owner, expected.owner);
  EXPECT_EQ(cold.entry->result().settle, expected.settle);
  EXPECT_EQ(cold.entry->num_clusters(), expected.num_clusters());
  for (vertex_t v = 0; v < g.num_vertices(); v += 13) {
    EXPECT_EQ(cold.entry->cluster_of(v), session.cluster_of(v, req));
    EXPECT_EQ(cold.entry->owner_of(v), session.owner_of(v, req));
  }
  const std::span<const Edge> expected_cut = session.boundary_arcs(req);
  const std::span<const Edge> cut = cold.entry->boundary_arcs();
  ASSERT_EQ(cut.size(), expected_cut.size());
  EXPECT_TRUE(std::equal(cut.begin(), cut.end(), expected_cut.begin()));
  for (vertex_t v = 0; v < g.num_vertices(); v += 131) {
    EXPECT_EQ(cold.entry->estimate_distance(0, v),
              session.estimate_distance(0, v, req));
  }

  // Re-acquiring is a hit on the same immutable entry, not a recompute.
  const SharedResultStore::Acquired warm = store.acquire(req);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.entry.get(), cold.entry.get());
  EXPECT_EQ(store.computes(), 1u);
  EXPECT_EQ(store.cached(req).get(), cold.entry.get());
  EXPECT_EQ(store.cached(request(0.5)), nullptr);  // distinct key
}

TEST(SharedStore, ConcurrentColdAcquiresAreSingleFlight) {
  const CsrGraph g = generators::grid2d(40, 40);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.25, 11);

  constexpr int kThreads = 8;
  std::atomic<int> cold_count{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  const DecompositionResult expected = decompose(g, req);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const SharedResultStore::Acquired got = store.acquire(req);
      if (!got.from_cache) ++cold_count;
      if (got.entry->result().owner != expected.owner) ++mismatches;
    });
  }
  for (std::thread& t : threads) t.join();

  // One thread computed; everyone else either waited on the in-flight
  // compute or found the published entry — all of those are cache hits.
  EXPECT_EQ(cold_count.load(), 1);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.computes(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(SharedStore, BatchMatchesIndividualAcquiresBitwise) {
  const CsrGraph g = generators::grid2d(30, 30);
  const double betas[] = {0.5, 0.2, 0.1};

  SharedResultStore batch_store((CsrGraph(g)));
  const std::vector<SharedResultStore::Acquired> batch =
      batch_store.acquire_batch(request(0.0), betas);
  ASSERT_EQ(batch.size(), std::size(betas));

  SharedResultStore one_by_one((CsrGraph(g)));
  for (std::size_t i = 0; i < std::size(betas); ++i) {
    SCOPED_TRACE("beta=" + std::to_string(betas[i]));
    const SharedResultStore::Acquired single =
        one_by_one.acquire(request(betas[i]));
    EXPECT_EQ(batch[i].entry->result().owner, single.entry->result().owner);
    EXPECT_EQ(batch[i].entry->result().settle, single.entry->result().settle);
  }

  // Overlapping betas hit the entries the batch populated.
  EXPECT_TRUE(batch_store.acquire(request(0.2)).from_cache);
  // And a bad beta anywhere in the ladder fails before any compute.
  const double bad[] = {0.5, 0.0};
  EXPECT_THROW((void)batch_store.acquire_batch(request(0.1), bad),
               std::invalid_argument);
}

TEST(SharedStore, ClearKeepsOutstandingEntriesAliveAndRecomputesIdentically) {
  const CsrGraph g = generators::grid2d(12, 12);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.3, 7);

  const std::shared_ptr<const MaterializedDecomposition> held =
      store.acquire(req).entry;
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.cached(req), nullptr);

  // The outstanding reference is untouched by the clear (the server parks
  // these next to in-flight responses).
  EXPECT_EQ(held->result().owner.size(), g.num_vertices());
  (void)held->cluster_of(0);

  // Recomputing after the clear reproduces the same bytes: the shift
  // draws are a deterministic function of (seed, distribution).
  const SharedResultStore::Acquired again = store.acquire(req);
  EXPECT_FALSE(again.from_cache);
  EXPECT_EQ(store.computes(), 2u);
  EXPECT_NE(again.entry.get(), held.get());
  EXPECT_EQ(again.entry->result().owner, held->result().owner);
  EXPECT_EQ(again.entry->result().settle, held->result().settle);
}

TEST(SharedStore, LoadCachedRestoresSavedResultsWarm) {
  mpx::testing::TempDir dir("mpx_store");
  const std::string path = dir.file("cached.dec");
  const CsrGraph g = generators::grid2d(10, 10);
  const DecompositionRequest req = request(0.3, 9);
  DecompositionResult expected;
  {
    DecompositionSession session((CsrGraph(g)));
    expected = session.run(req);
    session.save_cached(req, path);
  }

  SharedResultStore store((CsrGraph(g)));
  ASSERT_TRUE(store.load_cached(req, path));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.computes(), 0u);  // loaded, not computed
  const SharedResultStore::Acquired got = store.acquire(req);
  EXPECT_TRUE(got.from_cache);
  EXPECT_EQ(got.entry->result().owner, expected.owner);
  EXPECT_EQ(got.entry->result().settle, expected.settle);

  // A missing file for a non-resident key is a false return (the lenient
  // warm-restore path; a resident key short-circuits to true without
  // touching the file, per the session contract); mismatched requests
  // keep the session's hard error contract.
  EXPECT_FALSE(store.load_cached(request(0.7), dir.file("missing.dec")));
  EXPECT_TRUE(store.load_cached(req, dir.file("missing.dec")));
  EXPECT_THROW(
      (void)store.load_cached(request(0.3, 9, "ball-growing"), path),
      std::runtime_error);
  EXPECT_THROW(
      (void)store.load_cached(request(0.3, 9, "mpx-weighted"), path),
      std::invalid_argument);
}

// Lazy single flight: 8 threads race the first boundary_arcs() and
// estimate_distance() calls on a freshly acquired entry. Every thread must
// see the one boundary list (the same span pointer) and the answers of
// the independent references. Every compute team is pinned to one thread,
// so under TSan the call_once race is what gets checked (libgomp's
// barriers are uninstrumented and would report on their own).
TEST(SharedStore, ConcurrentFirstQueriesBuildEachArtifactOnce) {
  const ScopedNumThreads one(1);
  const CsrGraph g = generators::grid2d(40, 40);
  SharedResultStore store((CsrGraph(g)));
  const DecompositionRequest req = request(0.25);
  const std::shared_ptr<const MaterializedDecomposition> entry =
      store.acquire(req).entry;
  ASSERT_FALSE(entry->distance_oracle_built());
  const DecompositionResult& result = entry->result();
  const std::vector<Edge> expected_cut = compute_boundary_edges(g, result);
  const DistanceOracle oracle(g, Decomposition(result.decomposition));

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<const Edge*> seen(kThreads, nullptr);
  std::atomic<int> arrived{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ScopedNumThreads team(1);
      const vertex_t n = g.num_vertices();
      // Line every thread up so the first calls genuinely race; half the
      // threads start with the oracle, half with the boundary list.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      if (t % 2 == 1 && entry->estimate_distance(0, n - 1) !=
                            oracle.estimate(0, n - 1)) {
        ++mismatches;
      }
      const std::span<const Edge> cut = entry->boundary_arcs();
      seen[static_cast<std::size_t>(t)] = cut.data();
      if (!std::equal(cut.begin(), cut.end(), expected_cut.begin(),
                      expected_cut.end())) {
        ++mismatches;
      }
      for (int i = 0; i < kIters; ++i) {
        const auto v = static_cast<vertex_t>((t * 7919 + i * 104729) % n);
        const auto u = static_cast<vertex_t>((t * 104729 + i * 7919) % n);
        if (entry->estimate_distance(u, v) != oracle.estimate(u, v)) {
          ++mismatches;
        }
        if (entry->owner_of(v) != result.owner[v]) ++mismatches;
        if (entry->cluster_of(v) != result.cluster_of(v)) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(entry->distance_oracle_built());
  for (const Edge* data : seen) EXPECT_EQ(data, entry->boundary_arcs().data());
}

TEST(SharedStore, MaterializedDecompositionRejectsWeightedDistanceQueries) {
  SharedResultStore store(mpx::testing::grid3x3_weighted_reference());
  ASSERT_TRUE(store.weighted());
  const SharedResultStore::Acquired got =
      store.acquire(request(0.5, 3, "mpx-weighted"));
  EXPECT_TRUE(got.entry->result().weighted());
  EXPECT_THROW((void)got.entry->estimate_distance(0, 1),
               std::invalid_argument);
  (void)got.entry->cluster_of(0);  // non-distance queries still answer
}

}  // namespace
}  // namespace mpx
