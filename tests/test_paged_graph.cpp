// Tests for the out-of-core storage layer (src/storage/): the thread-safe
// sharded block cache (pins survive eviction, budget bounds residency in
// LRU order, stats account every decode), the PagedGraph read surface
// against the in-memory graph, paged-vs-in-memory byte-identity of the
// mpx decomposition across the fixture corpus x {1, 2, 8} threads x cache
// budgets, the paged session/store/oracle query surface and its lazy
// boundary/oracle builds, and the degree-descending snapshot placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/decomposer.hpp"
#include "core/session.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "graph/snapshot_blocks.hpp"
#include "parallel/thread_env.hpp"
#include "storage/block_cache.hpp"
#include "storage/paged_graph.hpp"
#include "support/random.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/temp_dir.hpp"

namespace mpx {
namespace {

using mpx::testing::NamedGraph;
using mpx::testing::TempDir;

/// Saves `g` cold and opens a shared reader on the file.
std::shared_ptr<const io::SnapshotBlockReader> cold_reader(
    const TempDir& tmp, const CsrGraph& g, std::uint32_t block_size,
    const std::string& name = "paged.mpxs") {
  const std::string path = tmp.file(name);
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  cold.block_size = block_size;
  io::save_snapshot(path, g, cold);
  return std::make_shared<io::SnapshotBlockReader>(path);
}

/// Decoded-target bytes of one full block — the eviction granularity.
std::uint64_t block_bytes(const io::SnapshotBlockReader& reader) {
  return static_cast<std::uint64_t>(reader.block_size()) * sizeof(vertex_t);
}

// --- ShardedBlockCache -----------------------------------------------------

TEST(ShardedBlockCache, PinReturnsDecodedBlock) {
  TempDir tmp("paged");
  const CsrGraph g = generators::rmat(9, 6.0, 3);
  const auto reader = cold_reader(tmp, g, 64);
  storage::ShardedBlockCache cache(reader, /*budget_bytes=*/0);
  for (std::size_t b = 0; b < reader->num_blocks(); ++b) {
    const storage::BlockPin pin = cache.pin(b);
    ASSERT_EQ(pin->size(), reader->block_arc_count(b));
    const auto begin = g.targets().begin() +
                       static_cast<std::ptrdiff_t>(reader->block_arc_begin(b));
    EXPECT_TRUE(std::equal(pin->begin(), pin->end(), begin)) << "block " << b;
  }
}

TEST(ShardedBlockCache, RepinHitsWithoutDecoding) {
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(16, 16);
  const auto reader = cold_reader(tmp, g, 64);
  storage::ShardedBlockCache cache(reader, /*budget_bytes=*/0);
  (void)cache.pin(0);
  (void)cache.pin(0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_blocks, 1u);
}

TEST(ShardedBlockCache, BudgetBoundsResidencyAndCountsEvictions) {
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(24, 24);
  const auto reader = cold_reader(tmp, g, 32);
  ASSERT_GT(reader->num_blocks(), 4u);
  // One shard makes the bound exact: at most two blocks' bytes resident
  // (budget) and never fewer than the MRU block.
  storage::ShardedBlockCache cache(reader, 2 * block_bytes(*reader),
                                   /*num_shards=*/1);
  for (std::size_t b = 0; b < reader->num_blocks(); ++b) (void)cache.pin(b);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, reader->num_blocks());
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, 2 * block_bytes(*reader));
  EXPECT_GE(stats.resident_blocks, 1u);
}

TEST(ShardedBlockCache, LruEvictsTheColdestBlock) {
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(24, 24);
  const auto reader = cold_reader(tmp, g, 16);
  ASSERT_GE(reader->num_blocks(), 4u);
  // One shard, room for two full blocks.
  storage::ShardedBlockCache cache(reader, 2 * block_bytes(*reader),
                                   /*num_shards=*/1);
  (void)cache.pin(0);
  (void)cache.pin(1);
  (void)cache.pin(0);  // touch 0: block 1 is now least recently used
  (void)cache.pin(2);  // evicts 1
  const std::uint64_t misses_before = cache.stats().misses;
  (void)cache.pin(0);  // still resident: hit
  EXPECT_EQ(cache.stats().misses, misses_before);
  (void)cache.pin(1);  // was evicted: miss
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
  // Single-threaded, every decode is either resident or evicted.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, stats.evictions + stats.resident_blocks);
}

TEST(ShardedBlockCache, PinnedBlockSurvivesEviction) {
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(24, 24);
  const auto reader = cold_reader(tmp, g, 32);
  // Budget of one block: every new pin evicts the cache's reference to
  // the previous block.
  storage::ShardedBlockCache cache(reader, block_bytes(*reader),
                                   /*num_shards=*/1);
  const storage::BlockPin held = cache.pin(0);
  const std::vector<vertex_t> expected(*held);
  for (std::size_t b = 1; b < reader->num_blocks(); ++b) (void)cache.pin(b);
  EXPECT_GT(cache.stats().evictions, 0u);
  // The pin API's whole point: the bytes outlive the eviction (ASan
  // would flag this dereference if eviction freed them).
  EXPECT_EQ(*held, expected);
}

TEST(ShardedBlockCache, EightThreadHammerStaysConsistent) {
  // Concurrent pins across a tiny budget: every thread must always see
  // correct block contents, whatever the interleaving of decodes,
  // adoptions, and evictions. The TSan job runs this binary.
  TempDir tmp("paged");
  const CsrGraph g = generators::rmat(10, 6.0, 7);
  const auto reader = cold_reader(tmp, g, 64);
  const std::size_t num_blocks = reader->num_blocks();
  ASSERT_GT(num_blocks, 8u);
  storage::ShardedBlockCache cache(reader, 2 * block_bytes(*reader));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (unsigned t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256pp rng(0xC0FFEE + t);
      for (int i = 0; i < 400; ++i) {
        const std::size_t b = rng.next_below(num_blocks);
        const storage::BlockPin pin = cache.pin(b);
        const auto begin =
            g.targets().begin() +
            static_cast<std::ptrdiff_t>(reader->block_arc_begin(b));
        if (pin->size() != reader->block_arc_count(b) ||
            !std::equal(pin->begin(), pin->end(), begin)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u * 400u);
}

// --- PagedGraph ------------------------------------------------------------

TEST(PagedGraph, MatchesInMemoryReadSurface) {
  TempDir tmp("paged");
  // Small blocks force plenty of cross-block adjacency runs; the star
  // guarantees a single run spanning many blocks.
  const std::vector<NamedGraph> corpus = [] {
    std::vector<NamedGraph> v = mpx::testing::small_graphs();
    v.push_back({"star_200", generators::star(200)});
    return v;
  }();
  for (const NamedGraph& named : corpus) {
    const CsrGraph& g = named.graph;
    if (g.num_arcs() == 0) continue;  // cold blocks need arcs
    const auto reader = cold_reader(tmp, g, 8, named.name + ".mpxs");
    const storage::PagedGraph paged(reader, /*cache_budget_bytes=*/64);
    ASSERT_EQ(paged.num_vertices(), g.num_vertices()) << named.name;
    ASSERT_EQ(paged.num_edges(), g.num_edges()) << named.name;
    ASSERT_EQ(paged.num_arcs(), g.num_arcs()) << named.name;
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(paged.degree(v), g.degree(v)) << named.name << " v=" << v;
      const auto got = paged.neighbors(v);
      const auto want = g.neighbors(v);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                             want.end()))
          << named.name << " v=" << v;
    }
  }
}

TEST(PagedGraph, SingleBlockSpansAliasThePinnedBlock) {
  // A run inside one block is served as a zero-copy subspan of the cached
  // block, not a copy into the lens scratch.
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(8, 8);
  // One giant block: every run is the single-block case.
  const auto reader =
      cold_reader(tmp, g, static_cast<std::uint32_t>(g.num_arcs()));
  ASSERT_EQ(reader->num_blocks(), 1u);
  const storage::PagedGraph paged(reader, /*cache_budget_bytes=*/0);
  const storage::BlockPin block = paged.cache().pin(0);
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = paged.neighbors(v);
    if (!nbrs.empty()) {
      EXPECT_EQ(nbrs.data(), block->data() + g.offsets()[v]) << "v=" << v;
    }
  }
}

TEST(PagedGraph, SpanValidUntilNextCallOnSameThread) {
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(12, 12);
  const auto reader = cold_reader(tmp, g, 16);
  const storage::PagedGraph paged(reader, 2 * block_bytes(*reader));
  for (vertex_t v = 0; v + 1 < g.num_vertices(); ++v) {
    const auto span = paged.neighbors(v);
    // Use the span fully before the next call — the documented contract.
    const std::vector<vertex_t> copy(span.begin(), span.end());
    const auto want = g.neighbors(v);
    ASSERT_TRUE(std::equal(copy.begin(), copy.end(), want.begin(),
                           want.end()))
        << "v=" << v;
  }
}

TEST(PagedGraph, ConcurrentReadersSeeConsistentAdjacency) {
  TempDir tmp("paged");
  const CsrGraph g = generators::rmat(9, 8.0, 1);
  const auto reader = cold_reader(tmp, g, 32);
  const storage::PagedGraph paged(reader, 2 * block_bytes(*reader));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256pp rng(17 * (t + 1));
      for (int i = 0; i < 300; ++i) {
        const vertex_t v =
            static_cast<vertex_t>(rng.next_below(g.num_vertices()));
        const auto got = paged.neighbors(v);
        const auto want = g.neighbors(v);
        if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(PagedWeightedGraph, ServesResidentWeights) {
  TempDir tmp("paged");
  const WeightedCsrGraph g = mpx::testing::grid3x3_weighted_reference();
  const std::string path = tmp.file("weighted.mpxs");
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  cold.block_size = 4;
  io::save_snapshot(path, g, cold);
  auto reader = std::make_shared<const io::SnapshotBlockReader>(path);
  const storage::PagedWeightedGraph paged(reader, /*cache_budget_bytes=*/64);
  ASSERT_EQ(paged.num_vertices(), g.num_vertices());
  for (vertex_t v = 0; v < g.num_vertices(); ++v) {
    const auto got_n = paged.neighbors(v);
    const auto want_n = g.topology().neighbors(v);
    ASSERT_TRUE(std::equal(got_n.begin(), got_n.end(), want_n.begin(),
                           want_n.end()));
    const auto got_w = paged.arc_weights(v);
    const auto want_w = g.arc_weights(v);
    ASSERT_TRUE(std::equal(got_w.begin(), got_w.end(), want_w.begin(),
                           want_w.end()));
  }
}

// --- paged decomposition byte-identity -------------------------------------

TEST(PagedDecomposition, ByteIdenticalAcrossThreadsAndBudgets) {
  TempDir tmp("paged");
  DecompositionRequest req;
  req.algorithm = "mpx";
  req.beta = 0.2;
  req.seed = 7;
  for (const NamedGraph& named : mpx::testing::small_graphs()) {
    const CsrGraph& g = named.graph;
    if (g.num_arcs() == 0) continue;
    const DecompositionResult want = decompose(g, req);
    const auto reader = cold_reader(tmp, g, 8, named.name + ".mpxs");
    // Budgets: unbounded, and a 2-block squeeze far below the graph.
    const std::uint64_t budgets[] = {0, 2 * block_bytes(*reader)};
    for (const std::uint64_t budget : budgets) {
      for (const int threads : {1, 2, 8}) {
        ScopedNumThreads scoped(threads);
        const storage::PagedGraph paged(reader, budget);
        const DecompositionResult got = decompose(paged, req);
        ASSERT_EQ(got.owner, want.owner)
            << named.name << " threads=" << threads << " budget=" << budget;
        ASSERT_EQ(got.settle, want.settle)
            << named.name << " threads=" << threads << " budget=" << budget;
      }
    }
  }
}

TEST(PagedDecomposition, TelemetryCarriesCacheDeltas) {
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(16, 16);
  const auto reader = cold_reader(tmp, g, 32);
  const storage::PagedGraph paged(reader, 2 * block_bytes(*reader));
  DecompositionRequest req;
  req.beta = 0.2;
  const DecompositionResult first = decompose(paged, req);
  // The whole graph is scanned at least once, so decodes happened.
  EXPECT_GT(first.telemetry.cache_misses, 0u);
  const auto total_after_first = paged.cache().stats();
  const DecompositionResult second = decompose(paged, req);
  // Per-run deltas, not lifetime totals: the second run starts from the
  // first run's warm cache, so its counters stand alone.
  EXPECT_EQ(second.telemetry.cache_hits + second.telemetry.cache_misses,
            paged.cache().stats().hits + paged.cache().stats().misses -
                total_after_first.hits - total_after_first.misses);
}

TEST(PagedDecomposition, OnlyMpxIsServedPaged) {
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(8, 8);
  const auto reader = cold_reader(tmp, g, 32);
  const storage::PagedGraph paged(reader, 0);
  DecompositionRequest req;
  req.algorithm = "ball-growing";
  EXPECT_THROW((void)decompose(paged, req), std::invalid_argument);
}

// --- paged sessions --------------------------------------------------------

/// Saves `g` cold and returns the path.
std::string save_cold(const TempDir& tmp, const CsrGraph& g,
                      std::uint32_t block_size, const std::string& name) {
  const std::string path = tmp.file(name);
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  cold.block_size = block_size;
  io::save_snapshot(path, g, cold);
  return path;
}

TEST(PagedSession, BudgetSelectsPagedModeAndQueriesMatch) {
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(20, 20);
  const std::string path = save_cold(tmp, g, 32, "session.mpxs");
  SessionConfig config;
  config.memory_budget_bytes = 1024;  // far below the ~15 KB resident estimate
  DecompositionSession paged = DecompositionSession::open_snapshot(path,
                                                                   config);
  ASSERT_TRUE(paged.paged());
  EXPECT_EQ(paged.num_vertices(), g.num_vertices());
  EXPECT_EQ(paged.num_edges(), g.num_edges());
  EXPECT_THROW((void)paged.topology(), std::logic_error);

  DecompositionSession inmem = DecompositionSession::open_snapshot(path);
  ASSERT_FALSE(inmem.paged());

  DecompositionRequest req;
  req.beta = 0.15;
  req.seed = 3;
  EXPECT_EQ(paged.run(req).owner, inmem.run(req).owner);
  EXPECT_GT(paged.run(req).telemetry.cache_misses, 0u);
  // The full query surface over a never-fully-resident graph.
  const auto b_paged = paged.boundary_arcs(req);
  const auto b_inmem = inmem.boundary_arcs(req);
  ASSERT_EQ(b_paged.size(), b_inmem.size());
  EXPECT_TRUE(std::equal(b_paged.begin(), b_paged.end(), b_inmem.begin()));
  EXPECT_EQ(paged.estimate_distance(0, g.num_vertices() - 1, req),
            inmem.estimate_distance(0, g.num_vertices() - 1, req));
  EXPECT_EQ(paged.cluster_of(5, req), inmem.cluster_of(5, req));
  // Lifetime cache counters are live on the paged session only.
  EXPECT_GT(paged.cache_stats().misses, 0u);
  EXPECT_EQ(inmem.cache_stats().misses, 0u);
}

TEST(PagedSession, LargeBudgetStaysInMemory) {
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(8, 8);
  const std::string path = save_cold(tmp, g, 32, "large.mpxs");
  SessionConfig config;
  config.memory_budget_bytes = 1ull << 30;
  DecompositionSession session =
      DecompositionSession::open_snapshot(path, config);
  EXPECT_FALSE(session.paged());
}

TEST(PagedStore, QueryArtifactsBuildOnFirstUse) {
  // On a fresh paged graph the block-cache counters show every adjacency
  // read: acquire, warm loads and owner/cluster queries read none beyond
  // the compute's own, while the boundary list and the oracle each scan
  // the graph exactly once, on their first query.
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(16, 16);
  const std::string path = save_cold(tmp, g, 32, "lazy.mpxs");
  SessionConfig config;
  config.memory_budget_bytes = 512;
  const auto reads = [](const SharedResultStore& store) {
    const auto stats = store.cache_stats();
    return stats.hits + stats.misses;
  };
  DecompositionRequest req;
  req.beta = 0.2;
  const std::string saved = tmp.file("lazy.dec");
  DecompositionSession(io::load_snapshot(path)).save_cached(req, saved);

  const std::unique_ptr<SharedResultStore> warm =
      SharedResultStore::open_snapshot(path, config);
  ASSERT_TRUE(warm->paged());
  ASSERT_TRUE(warm->load_cached(req, saved));
  EXPECT_EQ(reads(*warm), 0u);

  const std::unique_ptr<SharedResultStore> store =
      SharedResultStore::open_snapshot(path, config);
  ASSERT_TRUE(store->paged());
  const auto entry = store->acquire(req).entry;
  const RunTelemetry& t = entry->result().telemetry;
  const std::uint64_t after_compute = reads(*store);
  EXPECT_EQ(after_compute, t.cache_hits + t.cache_misses);
  EXPECT_EQ(entry->owner_of(3), entry->result().owner[3]);
  EXPECT_GE(entry->num_clusters(), 1u);
  (void)entry->cluster_of(5);
  EXPECT_EQ(reads(*store), after_compute);

  (void)entry->boundary_arcs();
  const std::uint64_t after_boundary = reads(*store);
  EXPECT_GT(after_boundary, after_compute);
  (void)entry->boundary_arcs();
  EXPECT_EQ(reads(*store), after_boundary);

  EXPECT_FALSE(entry->distance_oracle_built());
  (void)entry->estimate_distance(0, 5);
  const std::uint64_t after_oracle = reads(*store);
  EXPECT_GT(after_oracle, after_boundary);
  EXPECT_TRUE(entry->distance_oracle_built());
  (void)entry->estimate_distance(7, 200);
  EXPECT_EQ(reads(*store), after_oracle);
}

TEST(PagedStore, AcquireMatchesInMemoryStore) {
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(16, 16);
  const std::string path = save_cold(tmp, g, 32, "store.mpxs");
  auto reader = std::make_shared<const io::SnapshotBlockReader>(path);
  SharedResultStore paged(std::make_shared<storage::PagedGraph>(
      std::move(reader), /*cache_budget_bytes=*/1024));
  SharedResultStore inmem(io::load_snapshot(path));
  ASSERT_TRUE(paged.paged());
  EXPECT_EQ(paged.num_vertices(), g.num_vertices());
  EXPECT_EQ(paged.num_edges(), g.num_edges());
  EXPECT_THROW((void)paged.topology(), std::logic_error);
  DecompositionRequest req;
  req.beta = 0.2;
  const auto got = paged.acquire(req);
  const auto want = inmem.acquire(req);
  EXPECT_EQ(got.entry->result().owner, want.entry->result().owner);
  const auto b_got = got.entry->boundary_arcs();
  const auto b_want = want.entry->boundary_arcs();
  ASSERT_EQ(b_got.size(), b_want.size());
  EXPECT_TRUE(std::equal(b_got.begin(), b_got.end(), b_want.begin()));
  EXPECT_EQ(got.entry->estimate_distance(0, 100),
            want.entry->estimate_distance(0, 100));
  EXPECT_GT(paged.cache_stats().misses, 0u);
}

// --- snapshot info estimate ------------------------------------------------

TEST(SnapshotInfo, ResidentBytesEstimateMatchesFormula) {
  TempDir tmp("paged");
  const CsrGraph g = generators::grid2d(10, 10);
  const std::string path = save_cold(tmp, g, 32, "info.mpxs");
  const io::SnapshotInfo info = io::read_snapshot_info(path);
  EXPECT_EQ(info.resident_bytes_estimate(),
            (static_cast<std::uint64_t>(g.num_vertices()) + 1) * 8 +
                static_cast<std::uint64_t>(g.num_arcs()) * 4);

  const WeightedCsrGraph wg = mpx::testing::grid3x3_weighted_reference();
  const std::string wpath = tmp.file("winfo.mpxs");
  io::save_snapshot(wpath, wg);
  const io::SnapshotInfo winfo = io::read_snapshot_info(wpath);
  EXPECT_EQ(winfo.resident_bytes_estimate(),
            (static_cast<std::uint64_t>(wg.num_vertices()) + 1) * 8 +
                static_cast<std::uint64_t>(wg.topology().num_arcs()) * 12);
}

// --- degree-descending placement -------------------------------------------

TEST(Placement, DegreeDescendingPermutationRanksByDegree) {
  const CsrGraph g = generators::star(8);  // hub degree 7, leaves degree 1
  const std::vector<vertex_t> new_of_old = io::degree_descending_permutation(g);
  ASSERT_EQ(new_of_old.size(), g.num_vertices());
  EXPECT_EQ(new_of_old[0], 0u);  // the hub wins rank 0
  // Leaves are degree ties broken by ascending old id.
  for (vertex_t v = 1; v < g.num_vertices(); ++v) {
    EXPECT_EQ(new_of_old[v], v);
  }
}

TEST(Placement, ApplyVertexPermutationPreservesStructure) {
  const CsrGraph g = generators::rmat(7, 4.0, 5);
  const std::vector<vertex_t> perm = io::degree_descending_permutation(g);
  const CsrGraph relabeled = io::apply_vertex_permutation(g, perm);
  ASSERT_EQ(relabeled.num_vertices(), g.num_vertices());
  ASSERT_EQ(relabeled.num_arcs(), g.num_arcs());
  // Degrees are carried by the relabeling and end up non-increasing.
  for (vertex_t old = 0; old < g.num_vertices(); ++old) {
    EXPECT_EQ(relabeled.degree(perm[old]), g.degree(old));
  }
  for (vertex_t nv = 1; nv < relabeled.num_vertices(); ++nv) {
    EXPECT_LE(relabeled.degree(nv), relabeled.degree(nv - 1));
  }
  // Edge sets map exactly: {u, v} in g iff {perm[u], perm[v]} relabeled.
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    const auto want = g.neighbors(u);
    std::vector<vertex_t> mapped;
    mapped.reserve(want.size());
    for (const vertex_t v : want) mapped.push_back(perm[v]);
    std::sort(mapped.begin(), mapped.end());
    const auto got = relabeled.neighbors(perm[u]);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), mapped.begin(),
                           mapped.end()))
        << "u=" << u;
  }
}

TEST(Placement, RejectsNonPermutations) {
  const CsrGraph g = generators::path(4);
  const std::vector<vertex_t> too_short = {0, 1, 2};
  EXPECT_THROW((void)io::apply_vertex_permutation(g, too_short),
               std::invalid_argument);
  const std::vector<vertex_t> duplicate = {0, 1, 1, 3};
  EXPECT_THROW((void)io::apply_vertex_permutation(g, duplicate),
               std::invalid_argument);
  const std::vector<vertex_t> out_of_range = {0, 1, 2, 4};
  EXPECT_THROW((void)io::apply_vertex_permutation(g, out_of_range),
               std::invalid_argument);
}

TEST(Placement, SaveSnapshotWithPlacementWritesRelabeledGraph) {
  TempDir tmp("paged");
  const CsrGraph g = generators::star(32);
  const std::string path = tmp.file("placed.mpxs");
  io::SnapshotWriteOptions options;
  options.tier = io::SnapshotTier::kCold;
  options.block_size = 8;
  options.placement = io::SnapshotPlacement::kDegreeDescending;
  io::save_snapshot(path, g, options);
  const CsrGraph loaded = io::load_snapshot(path);
  const CsrGraph want =
      io::apply_vertex_permutation(g, io::degree_descending_permutation(g));
  ASSERT_EQ(loaded.num_vertices(), want.num_vertices());
  EXPECT_TRUE(std::equal(loaded.offsets().begin(), loaded.offsets().end(),
                         want.offsets().begin()));
  EXPECT_TRUE(std::equal(loaded.targets().begin(), loaded.targets().end(),
                         want.targets().begin()));
  // The hub's adjacency now fills the leading blocks.
  EXPECT_EQ(loaded.degree(0), g.num_vertices() - 1);
}

TEST(Placement, WeightedPermutationCarriesWeights) {
  const WeightedCsrGraph g = mpx::testing::grid3x3_weighted_reference();
  const std::vector<vertex_t> perm =
      io::degree_descending_permutation(g.topology());
  const WeightedCsrGraph relabeled = io::apply_vertex_permutation(g, perm);
  for (vertex_t u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.topology().neighbors(u);
    const auto weights = g.arc_weights(u);
    const auto new_nbrs = relabeled.topology().neighbors(perm[u]);
    const auto new_weights = relabeled.arc_weights(perm[u]);
    ASSERT_EQ(new_nbrs.size(), nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      // Find edge (perm[u], perm[nbrs[i]]) and check its weight rode along.
      const vertex_t target = perm[nbrs[i]];
      const auto it =
          std::lower_bound(new_nbrs.begin(), new_nbrs.end(), target);
      ASSERT_TRUE(it != new_nbrs.end() && *it == target);
      EXPECT_EQ(new_weights[static_cast<std::size_t>(it - new_nbrs.begin())],
                weights[i]);
    }
  }
}

}  // namespace
}  // namespace mpx
