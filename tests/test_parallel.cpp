// Tests for the S2 parallel-primitives layer: for/reduce/scan/pack/sort
// and the atomic helpers every concurrent algorithm relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>
#include <vector>

#include "parallel/atomics.hpp"
#include "parallel/bucket_rank.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "parallel/thread_env.hpp"
#include "support/random.hpp"

namespace mpx {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 100000;
  std::vector<int> hits(n, 0);
  parallel_for(std::size_t{0}, n, [&](std::size_t i) { ++hits[i]; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelFor, HandlesEmptyAndSmallRanges) {
  int count = 0;
  parallel_for(0, 0, [&](int) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(5, 5, [&](int) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(0, 3, [&](int) { ++count; });
  EXPECT_EQ(count, 3);
}

TEST(ParallelForDynamic, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 50000;
  std::vector<int> hits(n, 0);
  parallel_for_dynamic(std::size_t{0}, n, [&](std::size_t i) { ++hits[i]; });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelReduce, SumMatchesSequential) {
  const std::size_t n = 123457;
  const std::uint64_t sum = parallel_sum<std::uint64_t>(
      std::size_t{0}, n, [](std::size_t i) { return i; });
  EXPECT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelReduce, SumOfEmptyRangeIsIdentity) {
  EXPECT_EQ((parallel_sum<int>(0, 0, [](int) { return 1; })), 0);
}

TEST(ParallelReduce, MaxAndMin) {
  std::vector<std::uint32_t> data(77777);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint32_t>(hash_stream(3, i) % 1000000);
  }
  const std::uint32_t expected_max = *std::max_element(data.begin(), data.end());
  const std::uint32_t expected_min = *std::min_element(data.begin(), data.end());
  EXPECT_EQ((parallel_max(std::size_t{0}, data.size(), std::uint32_t{0},
                          [&](std::size_t i) { return data[i]; })),
            expected_max);
  EXPECT_EQ((parallel_min(std::size_t{0}, data.size(),
                          std::numeric_limits<std::uint32_t>::max(),
                          [&](std::size_t i) { return data[i]; })),
            expected_min);
}

TEST(ParallelReduce, CountIf) {
  const std::size_t n = 100000;
  const std::size_t evens =
      parallel_count_if(std::size_t{0}, n,
                        [](std::size_t i) { return i % 2 == 0; });
  EXPECT_EQ(evens, n / 2);
}

TEST(ParallelReduce, GeneralCombineWithNonCommutativeCheck) {
  // XOR is associative and commutative; use it to stress the combiner.
  const std::size_t n = 65536;
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) expected ^= hash_stream(1, i);
  const std::uint64_t got = parallel_reduce<std::uint64_t>(
      std::size_t{0}, n, 0ull, [](std::size_t i) { return hash_stream(1, i); },
      [](std::uint64_t a, std::uint64_t b) { return a ^ b; });
  EXPECT_EQ(got, expected);
}

TEST(Scan, MatchesSequentialExclusiveScan) {
  for (const std::size_t n : {0u, 1u, 7u, 2048u, 100001u}) {
    std::vector<std::uint64_t> data(n);
    for (std::size_t i = 0; i < n; ++i) data[i] = hash_stream(5, i) % 10;
    std::vector<std::uint64_t> expected(n);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] = acc;
      acc += data[i];
    }
    std::vector<std::uint64_t> got = data;
    const std::uint64_t total =
        exclusive_scan_inplace(std::span<std::uint64_t>(got));
    EXPECT_EQ(total, acc) << "n = " << n;
    EXPECT_EQ(got, expected) << "n = " << n;
  }
}

TEST(Scan, OffsetsFromCounts) {
  const std::vector<std::uint64_t> counts = {3, 0, 5, 1};
  const std::vector<std::uint64_t> offsets =
      offsets_from_counts(std::span<const std::uint64_t>(counts));
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 3, 3, 8, 9}));
}

TEST(Scan, OffsetsFromEmptyCounts) {
  const std::vector<std::uint64_t> counts;
  const std::vector<std::uint64_t> offsets =
      offsets_from_counts(std::span<const std::uint64_t>(counts));
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0}));
}

TEST(Pack, CollectsMatchingIndicesInOrder) {
  const std::uint32_t n = 100000;
  const auto multiples_of_7 =
      pack_indices(n, [](std::uint32_t i) { return i % 7 == 0; });
  ASSERT_EQ(multiples_of_7.size(), (n + 6) / 7);
  for (std::size_t i = 0; i < multiples_of_7.size(); ++i) {
    EXPECT_EQ(multiples_of_7[i], 7 * i);
  }
  EXPECT_TRUE(std::is_sorted(multiples_of_7.begin(), multiples_of_7.end()));
}

TEST(Pack, AllAndNone) {
  const std::uint32_t n = 5000;
  EXPECT_EQ(pack_indices(n, [](std::uint32_t) { return true; }).size(), n);
  EXPECT_TRUE(pack_indices(n, [](std::uint32_t) { return false; }).empty());
  EXPECT_TRUE(
      pack_indices(std::uint32_t{0}, [](std::uint32_t) { return true; })
          .empty());
}

TEST(Pack, MapVariant) {
  const std::uint32_t n = 10000;
  const auto squares = pack_map<std::uint64_t>(
      n, [](std::uint32_t i) { return i % 100 == 0; },
      [](std::uint32_t i) { return std::uint64_t{i} * i; });
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    const std::uint64_t v = 100 * i;
    EXPECT_EQ(squares[i], v * v);
  }
}

TEST(Sort, SortsRandomData) {
  std::vector<std::uint64_t> data(200000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = hash_stream(9, i);
  std::vector<std::uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());
  parallel_sort(std::span<std::uint64_t>(data));
  EXPECT_EQ(data, expected);
}

TEST(Sort, HandlesTinySortedReversedAndDuplicateInputs) {
  std::vector<int> empty;
  parallel_sort(std::span<int>(empty));
  EXPECT_TRUE(empty.empty());

  std::vector<int> one = {42};
  parallel_sort(std::span<int>(one));
  EXPECT_EQ(one, std::vector<int>{42});

  std::vector<int> sorted(10000);
  std::iota(sorted.begin(), sorted.end(), 0);
  std::vector<int> copy = sorted;
  parallel_sort(std::span<int>(copy));
  EXPECT_EQ(copy, sorted);

  std::vector<int> reversed(10000);
  std::iota(reversed.rbegin(), reversed.rend(), 0);
  parallel_sort(std::span<int>(reversed));
  EXPECT_EQ(reversed, sorted);

  std::vector<int> dups(50000);
  for (std::size_t i = 0; i < dups.size(); ++i) {
    dups[i] = static_cast<int>(hash_stream(2, i) % 5);
  }
  std::vector<int> dups_expected = dups;
  std::sort(dups_expected.begin(), dups_expected.end());
  parallel_sort(std::span<int>(dups));
  EXPECT_EQ(dups, dups_expected);
}

TEST(Sort, CustomComparator) {
  std::vector<std::uint32_t> data(30000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint32_t>(hash_stream(4, i));
  }
  parallel_sort(std::span<std::uint32_t>(data), std::greater<>{});
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end(), std::greater<>{}));
}

TEST(BucketedSortIds, MatchesSortByKeyThenIdAtEveryThreadCount) {
  // Against std::sort by (key, id): the records in `items` and every
  // bucket's end offset. The key kinds cover near-uniform buckets, a skewed
  // set with ~15/16 of the keys (1000 distinct values, so many ties) in
  // bucket 0 — a segment long enough to hit the 4096-sub-bucket cap — and
  // all keys equal. The n ladder straddles kSerialGrain, where the rank
  // switches from one chunk to one chunk per thread. One scratch serves the
  // whole sweep, so stale contents from a larger call must not leak.
  constexpr std::size_t kBuckets = 256;
  const auto bucket_of = [](std::uint64_t key) {
    return static_cast<std::size_t>(key >> 56);
  };
  enum class Keys { kUniform, kSkewed, kAllEqual };
  const auto key_of = [](Keys kind, std::uint32_t i) -> std::uint64_t {
    const std::uint64_t h = hash_stream(31, i);
    switch (kind) {
      case Keys::kUniform:
        return h;
      case Keys::kSkewed:
        return (h & 15) != 0 ? (h >> 8) % 1000 : h;
      case Keys::kAllEqual:
        break;
    }
    return std::uint64_t{1} << 60;
  };
  BucketSortScratch<std::uint64_t> scratch;
  for (const Keys kind : {Keys::kUniform, Keys::kSkewed, Keys::kAllEqual}) {
    for (const std::size_t n : {0, 1, 2047, 2048, 2049, 100000}) {
      std::vector<std::pair<std::uint64_t, std::uint32_t>> expected(n);
      std::vector<std::uint32_t> expected_ends(kBuckets, 0);
      for (std::uint32_t i = 0; i < n; ++i) {
        expected[i] = {key_of(kind, i), i};
        ++expected_ends[bucket_of(expected[i].first)];
      }
      std::sort(expected.begin(), expected.end());
      std::partial_sum(expected_ends.begin(), expected_ends.end(),
                       expected_ends.begin());
      for (const int threads : {1, 2, 3, 4, 8}) {
        ScopedNumThreads guard(threads);
        bucketed_sort_ids<std::uint64_t>(
            n, kBuckets, [&](std::uint32_t i) { return key_of(kind, i); },
            bucket_of, scratch);
        const auto context = ::testing::Message()
                             << "keys=" << static_cast<int>(kind)
                             << " n=" << n << " threads=" << threads;
        ASSERT_EQ(scratch.items.size(), n) << context;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(scratch.items[i].key, expected[i].first)
              << context << " i=" << i;
          ASSERT_EQ(scratch.items[i].id, expected[i].second)
              << context << " i=" << i;
        }
        ASSERT_EQ(scratch.bucket_ends, expected_ends) << context;
      }
    }
  }
}

TEST(Atomics, FetchMinLowersMonotonically) {
  std::uint32_t cell = 100;
  EXPECT_TRUE(atomic_fetch_min(cell, std::uint32_t{50}));
  EXPECT_EQ(cell, 50u);
  EXPECT_FALSE(atomic_fetch_min(cell, std::uint32_t{70}));
  EXPECT_EQ(cell, 50u);
  EXPECT_FALSE(atomic_fetch_min(cell, std::uint32_t{50}));
}

TEST(Atomics, FetchMaxRaisesMonotonically) {
  std::uint64_t cell = 10;
  EXPECT_TRUE(atomic_fetch_max(cell, std::uint64_t{20}));
  EXPECT_FALSE(atomic_fetch_max(cell, std::uint64_t{15}));
  EXPECT_EQ(cell, 20u);
}

TEST(Atomics, ConcurrentFetchMinFindsGlobalMin) {
  std::uint64_t cell = ~std::uint64_t{0};
  const std::size_t n = 200000;
  std::uint64_t expected = ~std::uint64_t{0};
  std::vector<std::uint64_t> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = hash_stream(8, i);
    expected = std::min(expected, values[i]);
  }
  parallel_for(std::size_t{0}, n,
               [&](std::size_t i) { atomic_fetch_min(cell, values[i]); });
  EXPECT_EQ(cell, expected);
}

TEST(Atomics, ClaimSucceedsExactlyOnce) {
  std::uint32_t cell = 0;
  std::atomic<int> winners{0};
  parallel_for(std::size_t{0}, std::size_t{100000}, [&](std::size_t) {
    if (atomic_claim(cell, std::uint32_t{0}, std::uint32_t{1})) ++winners;
  });
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(cell, 1u);
}

TEST(Atomics, FetchAddAccumulates) {
  std::uint64_t cell = 0;
  const std::size_t n = 100000;
  parallel_for(std::size_t{0}, n,
               [&](std::size_t) { atomic_fetch_add(cell, std::uint64_t{1}); });
  EXPECT_EQ(cell, n);
}

TEST(ThreadEnv, ReportsAtLeastOneThread) {
  EXPECT_GE(num_threads(), 1);
  EXPECT_GE(max_threads(), 1);
  EXPECT_FALSE(in_parallel());
}

TEST(ThreadEnv, ScopedNumThreadsRestores) {
  const int before = num_threads();
  {
    ScopedNumThreads guard(1);
    EXPECT_EQ(num_threads(), 1);
  }
  EXPECT_EQ(num_threads(), before);
}

TEST(ThreadEnv, ParallelResultsIdenticalAcrossThreadCounts) {
  // The determinism contract: a representative scan + pack pipeline gives
  // identical results with 1 and max threads.
  std::vector<std::uint64_t> data(50000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = hash_stream(6, i) % 3;

  std::vector<std::uint64_t> run1;
  std::vector<std::uint64_t> run2;
  {
    ScopedNumThreads guard(1);
    run1 = data;
    exclusive_scan_inplace(std::span<std::uint64_t>(run1));
  }
  {
    ScopedNumThreads guard(max_threads());
    run2 = data;
    exclusive_scan_inplace(std::span<std::uint64_t>(run2));
  }
  EXPECT_EQ(run1, run2);
}

}  // namespace
}  // namespace mpx
