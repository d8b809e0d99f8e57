// Distribution-aware bucketed ordering: the shift-phase sort killer.
//
// parallel_sort is a general primitive: it assumes nothing about its keys
// and pays O(n log n) comparisons, each a data-dependent branch over two
// random loads. The shift phase never needs that generality — its keys
// have a known, near-uniform distribution (frac(delta_max - delta) for
// exponential shifts, 64-bit counter hashes for random permutations), so a
// counting pass over a monotone bucket map places every key to within a
// small bucket in O(n) work, and a per-bucket finishing pass over
// contiguous (key, id) records orders each bucket exactly. The counting
// pass is the standard parallel-radix layout (per-chunk histograms, one
// scan, private-cursor scatter), so it scales with the team and touches
// no shared counter.
//
// The produced order is bitwise-identical to sorting by (key, id): the
// bucket map is monotone (key1 < key2 implies bucket(key1) <= bucket(key2)
// and equal keys share a bucket), so the concatenation of
// internally-sorted buckets *is* the globally sorted sequence, with ties
// broken by id inside each bucket exactly as the comparator sort did. A
// degenerate key distribution (everything in one bucket) only degrades to
// the comparison sort it replaced, never to a wrong order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "support/assert.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace mpx {

/// One scatter record: the sort key and the item id it belongs to. Keeping
/// the key next to the id makes the per-bucket finishing sort operate on
/// contiguous memory instead of chasing a random index per comparison.
template <typename Key>
struct KeyedItem {
  Key key;
  std::uint32_t id;
};

/// Reusable scratch for bucketed_sort_ids, sized on first use and stable
/// afterwards: warm calls at the same n, data and thread count allocate
/// nothing.
template <typename Key>
struct BucketSortScratch {
  /// Scatter destination; holds the sorted (key, id) records on return.
  std::vector<KeyedItem<Key>> items;
  /// After the call, bucket_ends[b] is the end offset of bucket b in
  /// `items` (its start is bucket_ends[b - 1], or 0).
  std::vector<std::uint32_t> bucket_ends;
  /// One row of num_buckets counters per chunk: chunk c's histogram, which
  /// the scan turns into c's private write cursor in every bucket.
  std::vector<std::uint32_t> chunk_cursors;
  /// Per-thread scratch for the second-level segment refinement: a copy
  /// buffer (one segment) and sub-bucket counters, both cache-sized.
  struct SegmentScratch {
    std::vector<KeyedItem<Key>> buf;
    std::vector<std::uint32_t> counts;
  };
  std::vector<SegmentScratch> segment_scratch;
};

/// Bucket count for n items: a power of two, at most 1024. The cap is
/// what makes the scatter fast: each bucket has one actively-written
/// cache line, so at <= 512-1024 buckets the whole set of write cursors
/// sits in L1 and the scatter degrades from n random misses to
/// near-streaming stores. Measured on 9M doubles, total bucketed time is
/// 0.81s at 256-512 buckets, 1.04s at 8192, and 2-3x worse at the ~n/4
/// bucket count of this header's first cut (the counter array alone
/// outgrew L2 and every touch missed). Oversized segments are cheap by
/// comparison — refine_segment splits them again in-cache. Power of two
/// so 64-bit keys can bucket with a plain shift.
[[nodiscard]] inline std::size_t bucket_count_for(std::size_t n) {
  std::size_t buckets = 256;
  while (buckets * 32768 < n && buckets < (std::size_t{1} << 10)) {
    buckets <<= 1;
  }
  return buckets;
}

namespace detail {

/// Buckets at most this long finish with an insertion sort; longer ones go
/// through refine_segment.
inline constexpr std::size_t kInsertionSortMax = 48;

/// Sub-bucket count refine_segment uses for a segment of `len` records.
[[nodiscard]] inline std::size_t sub_bucket_count(std::size_t len) {
  std::size_t sub_buckets = 64;
  while (sub_buckets * 4 < len && sub_buckets < 4096) sub_buckets <<= 1;
  return sub_buckets;
}

/// Grow `seg` to what refine_segment needs for a segment of `len` records.
template <typename Key>
void reserve_segment(typename BucketSortScratch<Key>::SegmentScratch& seg,
                     std::size_t len) {
  if (seg.buf.size() < len) seg.buf.resize(len);
  const std::size_t counters = sub_bucket_count(len) + 1;
  if (seg.counts.size() < counters) seg.counts.resize(counters);
}

/// Ascending insertion sort on the total (key, id) order — the terminal
/// sorter for runs small enough that quadratic beats everything.
template <typename Key>
void insertion_sort_items(KeyedItem<Key>* first, KeyedItem<Key>* last) {
  const auto less = [](const KeyedItem<Key>& a, const KeyedItem<Key>& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  };
  for (KeyedItem<Key>* it = first + 1; it < last; ++it) {
    const KeyedItem<Key> value = *it;
    KeyedItem<Key>* hole = it;
    while (hole != first && less(value, *(hole - 1))) {
      *hole = *(hole - 1);
      --hole;
    }
    *hole = value;
  }
}

/// Sort one bucket's segment [first, first + len) by (key, id) with a
/// second-level counting pass instead of a comparison sort: map each key
/// affinely from the segment's own [min, max] key range onto ~len/4
/// sub-buckets (monotone, so sub-bucket concatenation preserves the key
/// order), stable-scatter through `seg.buf`, insertion-sort the tiny
/// sub-buckets, copy back. The segment and both scratch arrays are
/// cache-sized, so unlike a comparison sort there is no data-dependent
/// branch per element — this is where the bucketed rank's speedup over
/// parallel_sort actually comes from. Degenerate key ranges (all keys in
/// a few sub-buckets) only push work back into the per-sub-bucket sorts,
/// never produce a wrong order. Expects the segment's ids ascending, as
/// bucketed_sort_ids' stable scatter leaves them.
template <typename Key>
void refine_segment(KeyedItem<Key>* first, std::size_t len,
                    typename BucketSortScratch<Key>::SegmentScratch& seg) {
  Key min_key = first[0].key;
  Key max_key = first[0].key;
  for (std::size_t i = 1; i < len; ++i) {
    min_key = std::min(min_key, first[i].key);
    max_key = std::max(max_key, first[i].key);
  }
  // All keys equal: the order is by id alone, which the ascending ids
  // already are.
  if (!(min_key < max_key)) return;
  const std::size_t sub_buckets = sub_bucket_count(len);
  // Affine monotone map of [min, max] onto [0, sub_buckets): every
  // floating-point step (subtract min, multiply a positive scale,
  // truncate) is monotone under rounding, and the clamp catches the
  // max-key product landing on sub_buckets exactly.
  const double scale = static_cast<double>(sub_buckets) /
                       static_cast<double>(max_key - min_key);
  const auto sub_of = [&](Key key) {
    return std::min(
        static_cast<std::size_t>(static_cast<double>(key - min_key) * scale),
        sub_buckets - 1);
  };
  reserve_segment<Key>(seg, len);
  std::fill_n(seg.counts.begin(), sub_buckets + 1, 0u);
  for (std::size_t i = 0; i < len; ++i) ++seg.counts[sub_of(first[i].key) + 1];
  for (std::size_t s = 1; s <= sub_buckets; ++s) {
    seg.counts[s] += seg.counts[s - 1];
  }
  for (std::size_t i = 0; i < len; ++i) {
    seg.buf[seg.counts[sub_of(first[i].key)]++] = first[i];
  }
  // counts[s] is now sub-bucket s's end offset; its start is counts[s-1].
  for (std::size_t s = 0; s < sub_buckets; ++s) {
    const std::uint32_t lo = s == 0 ? 0 : seg.counts[s - 1];
    const std::uint32_t hi = seg.counts[s];
    if (hi - lo < 2) continue;
    if (hi - lo <= kInsertionSortMax) {
      insertion_sort_items(seg.buf.data() + lo, seg.buf.data() + hi);
    } else {
      std::sort(seg.buf.data() + lo, seg.buf.data() + hi,
                [](const KeyedItem<Key>& a, const KeyedItem<Key>& b) {
                  return a.key != b.key ? a.key < b.key : a.id < b.id;
                });
    }
  }
  std::copy(seg.buf.begin(), seg.buf.begin() + static_cast<std::ptrdiff_t>(len),
            first);
}

}  // namespace detail

/// Stable parallel counting scatter of the implicit items {0, ..., n-1}
/// by bucket — the standard parallel-radix layout. [0, n) splits into one
/// contiguous chunk per thread of the OpenMP team (a single chunk below
/// kSerialGrain), each chunk histograms bucket_of(i) into its own row of
/// `chunk_cursors`, one exclusive scan in (bucket, chunk) order turns the
/// rows into private write cursors, and each chunk then calls
/// scatter(i, cursors) for its items in order; scatter must write item i
/// at position cursors[bucket_of(i)]++. No counter is shared, so there are
/// no atomics, and the scatter is stable: every bucket holds its items in
/// ascending order. On return bucket_ends[b] is the end offset of bucket b
/// (its start is bucket_ends[b - 1], or 0). The layout is identical for
/// every thread count. Requires bucket_of(i) < num_buckets; bucket_of is
/// invoked once per item, and scatter once per item.
template <typename BucketFn, typename ScatterFn>
void bucket_scatter(std::size_t n, std::size_t num_buckets,
                    BucketFn&& bucket_of, ScatterFn&& scatter,
                    std::vector<std::uint32_t>& bucket_ends,
                    std::vector<std::uint32_t>& chunk_cursors) {
  MPX_EXPECTS(num_buckets > 0);
  bucket_ends.resize(num_buckets);
#if defined(_OPENMP)
  const std::size_t team =
      n < kSerialGrain ? 1 : static_cast<std::size_t>(omp_get_max_threads());
#else
  const std::size_t team = 1;
#endif
  // One chunk per team thread; if the runtime grants a smaller team, the
  // worksharing loops below hand a thread several chunks.
  chunk_cursors.resize(team * num_buckets);
  const auto chunk_row = [&](std::size_t c) {
    return chunk_cursors.data() + c * num_buckets;
  };

  const auto count_chunk = [&](std::size_t c) {
    std::uint32_t* const row = chunk_row(c);
    std::fill_n(row, num_buckets, std::uint32_t{0});
    for (std::size_t i = c * n / team; i < (c + 1) * n / team; ++i) {
      ++row[bucket_of(static_cast<std::uint32_t>(i))];
    }
  };

  // Exclusive scan in (bucket, chunk) order: chunk c's cursor in bucket b
  // starts after every earlier bucket and after chunks 0..c-1 of bucket b.
  const auto scan = [&] {
    std::uint32_t offset = 0;
    for (std::size_t b = 0; b < num_buckets; ++b) {
      for (std::size_t c = 0; c < team; ++c) {
        std::uint32_t& cursor = chunk_row(c)[b];
        const std::uint32_t count = cursor;
        cursor = offset;
        offset += count;
      }
      bucket_ends[b] = offset;
    }
  };

  const auto scatter_chunk = [&](std::size_t c) {
    std::uint32_t* const row = chunk_row(c);
    for (std::size_t i = c * n / team; i < (c + 1) * n / team; ++i) {
      scatter(static_cast<std::uint32_t>(i), row);
    }
  };

  if (team == 1) {
    count_chunk(0);
    scan();
    scatter_chunk(0);
    return;
  }
#if defined(_OPENMP)
  const auto chunk_count = static_cast<std::int64_t>(team);
#pragma omp parallel num_threads(static_cast<int>(team))
  {
#pragma omp for schedule(static, 1)
    for (std::int64_t c = 0; c < chunk_count; ++c) {
      count_chunk(static_cast<std::size_t>(c));
    }
#pragma omp single
    scan();
#pragma omp for schedule(static, 1) nowait
    for (std::int64_t c = 0; c < chunk_count; ++c) {
      scatter_chunk(static_cast<std::size_t>(c));
    }
  }
#endif
}

/// Sort the implicit items {0, ..., n-1} ascending by (key_of(i), i) into
/// `scratch.items` via one bucketed counting pass. Requirements:
///  * bucket_of(key) < num_buckets for every key key_of ever returns;
///  * bucket_of is monotone in the key order: key1 < key2 implies
///    bucket_of(key1) <= bucket_of(key2) (equal keys, equal bucket).
/// key_of is invoked twice per item (count + scatter) and must be a pure
/// function of its argument.
///
/// The count and scatter are bucket_scatter's, so every bucket holds its
/// ids in ascending order before the finishing pass, which then sorts the
/// buckets independently over the whole team. The result is identical for
/// every thread count.
template <typename Key, typename KeyFn, typename BucketFn>
void bucketed_sort_ids(std::size_t n, std::size_t num_buckets, KeyFn&& key_of,
                       BucketFn&& bucket_of, BucketSortScratch<Key>& scratch) {
  scratch.items.resize(n);
  bucket_scatter(
      n, num_buckets,
      [&](std::uint32_t i) { return bucket_of(key_of(i)); },
      [&](std::uint32_t i, std::uint32_t* cursors) {
        const Key key = key_of(i);
        scratch.items[cursors[bucket_of(key)]++] = KeyedItem<Key>{key, i};
      },
      scratch.bucket_ends, scratch.chunk_cursors);

#if defined(_OPENMP)
  const std::size_t team =
      n < kSerialGrain ? 1 : static_cast<std::size_t>(omp_get_max_threads());
#else
  const std::size_t team = 1;
#endif
  // Size every thread's segment scratch for the largest bucket, so the
  // dynamic finishing schedule never grows a buffer on a warm call.
  if (scratch.segment_scratch.size() < team) {
    scratch.segment_scratch.resize(team);
  }
  std::uint32_t largest = 0;
  for (std::size_t b = 0; b < num_buckets; ++b) {
    const std::uint32_t lo = b == 0 ? 0 : scratch.bucket_ends[b - 1];
    largest = std::max(largest, scratch.bucket_ends[b] - lo);
  }
  if (largest > detail::kInsertionSortMax) {
    for (std::size_t t = 0; t < team; ++t) {
      detail::reserve_segment<Key>(scratch.segment_scratch[t], largest);
    }
  }

  const auto finish_bucket =
      [&](std::size_t b, typename BucketSortScratch<Key>::SegmentScratch& seg) {
        const std::uint32_t lo = b == 0 ? 0 : scratch.bucket_ends[b - 1];
        const std::uint32_t hi = scratch.bucket_ends[b];
        if (hi - lo < 2) return;
        KeyedItem<Key>* const first = scratch.items.data() + lo;
        if (hi - lo <= detail::kInsertionSortMax) {
          detail::insertion_sort_items(first, first + (hi - lo));
        } else {
          detail::refine_segment(first, hi - lo, seg);
        }
      };

  if (team == 1) {
    for (std::size_t b = 0; b < num_buckets; ++b) {
      finish_bucket(b, scratch.segment_scratch[0]);
    }
    return;
  }
#if defined(_OPENMP)
  const auto bucket_count = static_cast<std::int64_t>(num_buckets);
#pragma omp parallel num_threads(static_cast<int>(team))
  {
    auto& seg =
        scratch.segment_scratch[static_cast<std::size_t>(omp_get_thread_num())];
#pragma omp for schedule(dynamic, 4) nowait
    for (std::int64_t b = 0; b < bucket_count; ++b) {
      finish_bucket(static_cast<std::size_t>(b), seg);
    }
  }
#endif
}

}  // namespace mpx
