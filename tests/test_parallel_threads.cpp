// Thread-count sweep for the parallel primitives: scan, reduce, sort and
// pack must return the bitwise-identical answer at 1, 2 and 8 threads (the
// library's determinism contract — results are pure functions of the input,
// never of the schedule), and the traversal engine the identical search at
// 1, 2, 3, 4 and 8, in memory and paged. Inputs span the serial/parallel
// grain boundary so both code paths run at every width.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bfs/multi_source_bfs.hpp"
#include "core/decomposer.hpp"
#include "core/shifts.hpp"
#include "graph/snapshot.hpp"
#include "graph/snapshot_blocks.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "parallel/thread_env.hpp"
#include "storage/paged_graph.hpp"
#include "support/random.hpp"
#include "tests/support/property.hpp"
#include "tests/support/temp_dir.hpp"

namespace mpx {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

// Sizes straddling kSerialGrain (2048) so every width exercises both the
// serial short-circuit and the forked path.
constexpr std::size_t kSizes[] = {0, 1, 7, 2047, 2048, 4097, 50000};

std::vector<std::uint64_t> random_data(std::size_t n, std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::uint64_t> data(n);
  for (auto& x : data) x = rng.next_below(1u << 20);
  return data;
}

TEST(ParallelThreads, ScanMatchesSequentialAtEveryWidth) {
  for (const std::size_t n : kSizes) {
    const std::vector<std::uint64_t> data = random_data(n, 0xa0 + n);
    std::vector<std::uint64_t> expected(n);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] = acc;
      acc += data[i];
    }
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      ScopedNumThreads guard(threads);
      std::vector<std::uint64_t> got = data;
      const std::uint64_t total =
          exclusive_scan_inplace(std::span<std::uint64_t>(got));
      EXPECT_EQ(total, acc);
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(ParallelThreads, ReduceMatchesSequentialAtEveryWidth) {
  for (const std::size_t n : kSizes) {
    const std::vector<std::uint64_t> data = random_data(n, 0xb0 + n);
    const std::uint64_t sum =
        std::accumulate(data.begin(), data.end(), std::uint64_t{0});
    const std::uint64_t max =
        n == 0 ? 0 : *std::max_element(data.begin(), data.end());
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      ScopedNumThreads guard(threads);
      EXPECT_EQ(parallel_sum<std::uint64_t>(
                    std::size_t{0}, n, [&](std::size_t i) { return data[i]; }),
                sum);
      EXPECT_EQ(parallel_max<std::uint64_t>(
                    std::size_t{0}, n, std::uint64_t{0},
                    [&](std::size_t i) { return data[i]; }),
                max);
      EXPECT_EQ(parallel_count_if(std::size_t{0}, n,
                                  [&](std::size_t i) { return data[i] % 2; }),
                static_cast<std::size_t>(std::count_if(
                    data.begin(), data.end(),
                    [](std::uint64_t x) { return x % 2; })));
    }
  }
}

TEST(ParallelThreads, SortMatchesSequentialAtEveryWidth) {
  for (const std::size_t n : kSizes) {
    // Heavy duplicates stress merge/partition tie handling.
    Xoshiro256pp rng(0xc0 + n);
    std::vector<std::uint64_t> data(n);
    for (auto& x : data) x = rng.next_below(64);
    std::vector<std::uint64_t> expected = data;
    std::sort(expected.begin(), expected.end());
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      ScopedNumThreads guard(threads);
      std::vector<std::uint64_t> got = data;
      parallel_sort(std::span<std::uint64_t>(got));
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(ParallelThreads, PackMatchesSequentialAtEveryWidth) {
  for (const std::size_t n : kSizes) {
    const std::vector<std::uint64_t> data = random_data(n, 0xd0 + n);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      if (data[i] % 3 == 0) expected.push_back(i);
    }
    for (const int threads : kThreadCounts) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      ScopedNumThreads guard(threads);
      EXPECT_EQ(
          pack_indices(n, [&](std::size_t i) { return data[i] % 3 == 0; }),
          expected);
      EXPECT_EQ(pack_map<std::uint64_t>(
                    n, [&](std::size_t i) { return data[i] % 3 == 0; },
                    [&](std::size_t i) { return data[i] * 2; }),
                [&] {
                  std::vector<std::uint64_t> out;
                  for (const std::size_t i : expected) out.push_back(data[i] * 2);
                  return out;
                }());
    }
  }
}

// Traversal widths: 3 splits every round's passes unevenly, 4 is a
// common core count, 8 oversubscribes small hosts.
constexpr int kTraversalWidths[] = {1, 2, 3, 4, 8};

/// The graph and shifts of the traversal rows: big enough that rounds cross
/// the engine's serial-round cutoff, so parallel passes actually fork at
/// widths > 1 (asserted through the round log).
struct TraversalCase {
  CsrGraph g;
  Shifts shifts;
};

TraversalCase traversal_case(std::uint64_t seed) {
  Xoshiro256pp rng(seed);
  TraversalCase c;
  c.g = mpx::testing::random_connected_graph(rng, 20000, 8.0);
  PartitionOptions popt;
  popt.beta = 0.2;
  popt.seed = seed;
  c.shifts = generate_shifts(c.g.num_vertices(), popt);
  return c;
}

TEST(ParallelThreads, TraversalEnginesMatchSequentialAtEveryWidth) {
  // The traversal engine's contract doubled: for a fixed seed the result
  // must be invariant across thread widths AND across engines (push /
  // pull / auto). The reference is the push engine at one thread; the
  // round and arc counters must match it too, and each engine's pull-round
  // count must match that engine at one thread.
  mpx::testing::for_each_seed(3, [](std::uint64_t seed) {
    const TraversalCase c = traversal_case(seed);
    const Shifts& shifts = c.shifts;

    const auto run = [&](int threads, TraversalEngine engine) {
      ScopedNumThreads guard(threads);
      return delayed_multi_source_bfs(c.g, shifts.start_round, shifts.rank,
                                      kInfDist, engine);
    };
    const MultiSourceBfsResult ref = run(1, TraversalEngine::kPush);
    RoundLog log;
    (void)delayed_multi_source_bfs(c.g, shifts.start_round, shifts.rank,
                                   kInfDist, TraversalEngine::kPush, nullptr,
                                   &log);
    ASSERT_TRUE(std::any_of(
        log.rounds().begin(), log.rounds().end(),
        [](const TraversalRound& r) {
          return r.activations + r.frontier >= kSerialGrain / 4;
        }));
    for (const TraversalEngine engine :
         {TraversalEngine::kPush, TraversalEngine::kPull,
          TraversalEngine::kAuto}) {
      const std::uint32_t ref_pull_rounds = run(1, engine).pull_rounds;
      for (const int threads : kTraversalWidths) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " engine=" +
                     std::string(traversal_engine_name(engine)));
        const MultiSourceBfsResult r = run(threads, engine);
        EXPECT_EQ(r.owner, ref.owner);
        EXPECT_EQ(r.settle_round, ref.settle_round);
        EXPECT_EQ(r.rounds, ref.rounds);
        EXPECT_EQ(r.arcs_scanned, ref.arcs_scanned);
        EXPECT_EQ(r.pull_rounds, ref_pull_rounds);
      }
    }
  });
}

TEST(ParallelThreads, PagedTraversalMatchesInMemoryAtFourThreads) {
  // The same search served out-of-core under a two-block budget, at four
  // threads: the paged backend must reproduce the in-memory result byte
  // for byte, counters included.
  mpx::testing::TempDir tmp("threads_paged");
  mpx::testing::for_each_seed(2, [&](std::uint64_t seed) {
    const TraversalCase c = traversal_case(seed);
    const std::string path = tmp.file("g" + std::to_string(seed) + ".mpxs");
    io::SnapshotWriteOptions cold;
    cold.tier = io::SnapshotTier::kCold;
    cold.block_size = 64;
    io::save_snapshot(path, c.g, cold);
    const auto reader = std::make_shared<const io::SnapshotBlockReader>(path);

    DecompositionRequest req;
    req.beta = 0.2;
    req.seed = seed;
    ScopedNumThreads guard(4);
    const DecompositionResult want = decompose(c.g, req);
    const storage::PagedGraph paged(
        reader, 2 * std::uint64_t{reader->block_size()} * sizeof(vertex_t));
    const DecompositionResult got = decompose(paged, req);
    EXPECT_GT(got.telemetry.cache_evictions, 0u);
    EXPECT_EQ(got.owner, want.owner);
    EXPECT_EQ(got.settle, want.settle);
    EXPECT_EQ(got.telemetry.rounds, want.telemetry.rounds);
    EXPECT_EQ(got.telemetry.arcs_scanned, want.telemetry.arcs_scanned);
  });
}

TEST(ParallelThreads, ResultsIdenticalAcrossWidthsOnRandomInputs) {
  // Property form: for random shapes, every width agrees with width 1.
  mpx::testing::for_each_seed(4, [](std::uint64_t seed) {
    Xoshiro256pp rng(seed);
    const std::size_t n = rng.next_below(30000);
    std::vector<std::uint64_t> data(n);
    for (auto& x : data) x = rng();

    std::vector<std::uint64_t> scan1, sorted1;
    std::uint64_t sum1 = 0;
    {
      ScopedNumThreads guard(1);
      scan1 = data;
      sum1 = exclusive_scan_inplace(std::span<std::uint64_t>(scan1));
      sorted1 = data;
      parallel_sort(std::span<std::uint64_t>(sorted1));
    }
    for (const int threads : {2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ScopedNumThreads guard(threads);
      std::vector<std::uint64_t> scan = data;
      EXPECT_EQ(exclusive_scan_inplace(std::span<std::uint64_t>(scan)), sum1);
      EXPECT_EQ(scan, scan1);
      std::vector<std::uint64_t> sorted = data;
      parallel_sort(std::span<std::uint64_t>(sorted));
      EXPECT_EQ(sorted, sorted1);
    }
  });
}

}  // namespace
}  // namespace mpx
