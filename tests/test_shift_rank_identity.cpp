// Bitwise-identity suite for the bucketed shift rank (ISSUE 7).
//
// The bucketed rank (parallel/bucket_rank.hpp) replaced the comparator
// sort in fractional_ranks() and parallel_random_permutation(). Its
// correctness claim is exact, not approximate: the produced order must be
// bit-for-bit the order the retired sort produced, for every distribution,
// tie-break, thread count, and graph in the fixture corpus — otherwise
// owner/settle arrays drift and every downstream byte-identity guarantee
// breaks. This suite pins that claim against independent reference
// implementations of the old sorts, and additionally holds the warm-run
// zero-allocation property of the workspace-owned scratch (shift rank and
// search alike) and that a fresh workspace allocates nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "bfs/multi_source_bfs.hpp"
#include "core/decomposer.hpp"
#include "core/shifts.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_env.hpp"
#include "support/fixtures.hpp"
#include "support/random.hpp"

namespace {

// Global allocation counter for the warm-run zero-allocation test. Relaxed
// atomics: the tests that read it run the measured region and the readback
// on the same thread.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Every replacement below is noinline: GCC's -Wmismatched-new-delete
// otherwise sees the inlined malloc/free bodies at call sites and reports
// `operator new`'s pointer reaching `free` as a mismatch. Out of line,
// each call site pairs operator new with operator delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The nothrow forms (std::get_temporary_buffer, under parallel_sort's
// merges) must come from malloc too, or the free() below mismatches them.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mpx {
namespace {

PartitionOptions opts(double beta, std::uint64_t seed,
                      ShiftDistribution dist = ShiftDistribution::kExponential,
                      TieBreak tb = TieBreak::kFractionalShift) {
  PartitionOptions o;
  o.beta = beta;
  o.seed = seed;
  o.distribution = dist;
  o.tie_break = tb;
  return o;
}

constexpr ShiftDistribution kDistributions[] = {
    ShiftDistribution::kExponential, ShiftDistribution::kPermutationQuantile,
    ShiftDistribution::kUniform};

constexpr TieBreak kTieBreaks[] = {TieBreak::kFractionalShift,
                                   TieBreak::kRandomPermutation,
                                   TieBreak::kLexicographic};

/// The retired fractional rank, verbatim: stable order of
/// frac(delta_max - delta), ties by vertex id, via a comparison sort.
std::vector<std::uint32_t> reference_fractional_ranks(
    const std::vector<double>& delta, double delta_max) {
  const std::size_t n = delta.size();
  std::vector<double> frac(n);
  for (std::size_t u = 0; u < n; ++u) {
    const double start = delta_max - delta[u];
    frac[u] = start - std::floor(start);
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return frac[a] != frac[b] ? frac[a] < frac[b] : a < b;
            });
  std::vector<std::uint32_t> rank(n);
  for (std::uint32_t i = 0; i < n; ++i) rank[order[i]] = i;
  return rank;
}

/// The retired permutation construction, verbatim: sort indices by
/// (hash_stream(seed, i), i).
std::vector<std::uint32_t> reference_permutation(std::size_t n,
                                                 std::uint64_t seed) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(),
            [seed](std::uint32_t a, std::uint32_t b) {
              const std::uint64_t ka = hash_stream(seed, a);
              const std::uint64_t kb = hash_stream(seed, b);
              return ka != kb ? ka < kb : a < b;
            });
  return perm;
}

/// Rank vector the retired code produced for (opt, n) — the oracle every
/// bucketed variant must reproduce exactly.
std::vector<std::uint32_t> reference_ranks(vertex_t n,
                                           const PartitionOptions& opt,
                                           const Shifts& s) {
  switch (opt.tie_break) {
    case TieBreak::kFractionalShift:
      return reference_fractional_ranks(s.delta, s.delta_max);
    case TieBreak::kRandomPermutation: {
      const std::vector<std::uint32_t> perm = reference_permutation(
          n, hash_stream(opt.seed, 0x7065726d75746174ULL));
      std::vector<std::uint32_t> rank(n);
      for (std::uint32_t i = 0; i < n; ++i) rank[perm[i]] = i;
      return rank;
    }
    case TieBreak::kLexicographic: {
      std::vector<std::uint32_t> rank(n);
      std::iota(rank.begin(), rank.end(), 0u);
      return rank;
    }
  }
  return {};
}

TEST(ShiftRankIdentity, MatchesSortReferenceEverywhere) {
  for (const vertex_t n : {vertex_t{0}, vertex_t{1}, vertex_t{2}, vertex_t{37},
                           vertex_t{1000}, vertex_t{20000}}) {
    for (const ShiftDistribution dist : kDistributions) {
      for (const TieBreak tb : kTieBreaks) {
        for (const std::uint64_t seed : {0ull, 42ull, 0xdeadbeefull}) {
          const PartitionOptions o = opts(0.1, seed, dist, tb);
          const Shifts s = generate_shifts(n, o);
          ASSERT_EQ(s.rank, reference_ranks(n, o, s))
              << "n=" << n << " dist=" << static_cast<int>(dist)
              << " tb=" << static_cast<int>(tb) << " seed=" << seed;
        }
      }
    }
  }
}

TEST(ShiftRankIdentity, ParallelPermutationMatchesSortReference) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{255},
                              std::size_t{256}, std::size_t{100000}}) {
    for (const std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
      ASSERT_EQ(parallel_random_permutation(n, seed),
                reference_permutation(n, seed))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(ShiftRankIdentity, ThreadCountInvariant) {
  // Each thread scatters its own contiguous chunk of ids, so the chunk
  // boundaries move with the thread count; the order must not. 3 threads
  // split n unevenly; 8 oversubscribes a smaller host.
  const vertex_t n = 50000;
  for (const ShiftDistribution dist : kDistributions) {
    for (const TieBreak tb : kTieBreaks) {
      const PartitionOptions o = opts(0.05, 99, dist, tb);
      Shifts at_one;
      {
        ScopedNumThreads guard(1);
        at_one = generate_shifts(n, o);
      }
      for (const int threads : {2, 3, 8}) {
        ScopedNumThreads guard(threads);
        const Shifts s = generate_shifts(n, o);
        ASSERT_EQ(s.rank, at_one.rank)
            << "threads=" << threads << " dist=" << static_cast<int>(dist)
            << " tb=" << static_cast<int>(tb);
        ASSERT_EQ(s.delta, at_one.delta);
        ASSERT_EQ(s.start_round, at_one.start_round);
      }
    }
  }
}

TEST(ShiftRankIdentity, BasisDerivedShiftsMatchDirectAtEveryLadderBeta) {
  // The batch path: one basis, the BENCH_session 4-beta ladder. Everything
  // the search consumes — delta, delta_max, start_round, rank — must be
  // bitwise-equal to a direct draw, including the basis-cached maximum.
  const vertex_t n = 30000;
  for (const ShiftDistribution dist : kDistributions) {
    for (const TieBreak tb : kTieBreaks) {
      const PartitionOptions base = opts(0.5, 17, dist, tb);
      const ShiftBasis basis = make_shift_basis(n, base);
      for (const double beta : {0.5, 0.2, 0.1, 0.05}) {
        PartitionOptions o = base;
        o.beta = beta;
        Shifts derived;
        shifts_from_basis(basis, o, derived);
        const Shifts direct = generate_shifts(n, o);
        ASSERT_EQ(derived.delta, direct.delta)
            << "beta=" << beta << " dist=" << static_cast<int>(dist);
        ASSERT_EQ(derived.delta_max, direct.delta_max) << "beta=" << beta;
        ASSERT_EQ(derived.start_round, direct.start_round) << "beta=" << beta;
        ASSERT_EQ(derived.rank, direct.rank)
            << "beta=" << beta << " tb=" << static_cast<int>(tb);
      }
    }
  }
}

TEST(ShiftRankIdentity, OwnerSettleIdenticalAcrossFixtureCorpus) {
  // End-to-end: decompose every canonical graph and hold the owner/settle
  // arrays equal to what the sort-order ranks would have produced — i.e.
  // recompute ranks by reference and check the engine saw the same
  // schedule. Runs at two thread counts for the full owner/settle paths.
  for (const auto& [name, graph] : mpx::testing::canonical_graphs()) {
    DecompositionRequest req;
    req.algorithm = "mpx";
    req.beta = 0.2;
    req.seed = 11;
    const PartitionOptions o = req.partition_options();
    const Shifts s = generate_shifts(graph.num_vertices(), o);
    ASSERT_EQ(s.rank, reference_ranks(graph.num_vertices(), o, s)) << name;

    DecompositionResult one;
    {
      ScopedNumThreads guard(1);
      one = decompose(graph, req);
    }
    ScopedNumThreads guard(4);
    const DecompositionResult four = decompose(graph, req);
    ASSERT_EQ(one.owner, four.owner) << name;
    ASSERT_EQ(one.settle, four.settle) << name;
  }
}

// Both warm-run tests pin a 4-thread team: the finishing pass hands buckets
// to threads dynamically, so the largest bucket can land on any thread's
// segment buffer, and a thread whose buffer was not sized up front would
// allocate on a warm call. Whether it does depends on the schedule, so the
// tests also check the rule itself after every call: each team thread's
// buffer already holds the largest bucket. Several seeds move that bucket.
constexpr int kWarmThreads = 4;
constexpr std::uint64_t kWarmSeeds[] = {5, 6, 7, 8, 23};

void expect_segments_hold_largest_bucket(const ShiftWorkspace& ws) {
  const BucketSortScratch<double>& rs = ws.rank_scratch;
  std::uint32_t largest = 0;
  std::uint32_t start = 0;
  for (const std::uint32_t end : rs.bucket_ends) {
    largest = std::max(largest, end - start);
    start = end;
  }
  ASSERT_GE(rs.segment_scratch.size(), std::size_t{kWarmThreads});
  for (std::size_t t = 0; t < kWarmThreads; ++t) {
    EXPECT_GE(rs.segment_scratch[t].buf.size(), largest) << "thread=" << t;
  }
}

TEST(ShiftRankIdentity, WarmWorkspaceRunsAllocateNothing) {
  // The workspace-owned scratch (rank records, per-chunk bucket cursors,
  // per-thread segment buffers) and the Shifts vectors are sized by the
  // first call; repeat calls at the same n must not touch the allocator.
  ScopedNumThreads guard(kWarmThreads);
  const vertex_t n = 60000;
  for (const std::uint64_t seed : kWarmSeeds) {
    for (const TieBreak tb :
         {TieBreak::kFractionalShift, TieBreak::kLexicographic}) {
      const PartitionOptions o =
          opts(0.1, seed, ShiftDistribution::kExponential, tb);
      Shifts s;
      ShiftWorkspace ws;
      generate_shifts(n, o, s, &ws);  // cold: sizes everything
      const std::uint64_t before =
          g_allocations.load(std::memory_order_relaxed);
      for (int rep = 0; rep < 3; ++rep) generate_shifts(n, o, s, &ws);
      const std::uint64_t after =
          g_allocations.load(std::memory_order_relaxed);
      EXPECT_EQ(after, before)
          << "seed=" << seed << " tie_break=" << static_cast<int>(tb);
      if (tb == TieBreak::kFractionalShift) {
        expect_segments_hold_largest_bucket(ws);
      }
    }
  }
}

TEST(ShiftRankIdentity, WarmBasisRunsAllocateNothing) {
  // Same property for the batch path: after one beta warms the workspace,
  // further betas (same n) are allocation-free.
  ScopedNumThreads guard(kWarmThreads);
  const vertex_t n = 60000;
  for (const std::uint64_t seed : kWarmSeeds) {
    const PartitionOptions base = opts(0.5, seed);
    const ShiftBasis basis = make_shift_basis(n, base);
    Shifts s;
    ShiftWorkspace ws;
    PartitionOptions o = base;
    shifts_from_basis(basis, o, s, &ws);
    expect_segments_hold_largest_bucket(ws);
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (const double beta : {0.2, 0.1, 0.05}) {
      o.beta = beta;
      shifts_from_basis(basis, o, s, &ws);
      expect_segments_hold_largest_bucket(ws);
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "seed=" << seed;
  }
}

TEST(WorkspaceAllocations, DecompositionWorkspaceStartsEmpty) {
  // A workspace is built where a server opens its store, before any
  // request: constructing one must not touch the allocator (its first
  // search sizes it).
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const DecompositionWorkspace ws;
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(ws.bfs.claim.capacity(), 0u);
  EXPECT_EQ(ws.bfs.traversal.cur.universe(), 0u);
}

TEST(WorkspaceAllocations, WarmSearchAllocatesOnlyItsResult) {
  // After one cold call the search's rounds reuse the workspace: a warm
  // call allocates exactly the two result arrays, however many rounds it
  // forks.
  const CsrGraph g = generators::grid2d(300, 300);
  const Shifts shifts = generate_shifts(g.num_vertices(), opts(0.1, 3));
  for (const int threads : {1, kWarmThreads}) {
    ScopedNumThreads guard(threads);
    MultiSourceBfsWorkspace ws;
    (void)delayed_multi_source_bfs(g, shifts.start_round, shifts.rank,
                                   kInfDist, TraversalEngine::kPush, &ws);
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    const MultiSourceBfsResult r =
        delayed_multi_source_bfs(g, shifts.start_round, shifts.rank,
                                 kInfDist, TraversalEngine::kPush, &ws);
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 2u) << "threads=" << threads;
    EXPECT_GT(r.rounds, 0u);
  }
}

}  // namespace
}  // namespace mpx
