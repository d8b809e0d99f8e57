/// \file
/// \brief Low-overhead metrics primitives: counters, gauges, log-bucketed
/// latency histograms, and a named registry (docs/OBSERVABILITY.md).
///
/// The hot path is `LatencyHistogram::record()`: four relaxed atomic RMWs
/// on a fixed-size bucket array, no locks, no allocation — cheap enough to
/// sit on the server's per-frame service path. Extraction (`snapshot()`)
/// and registration (`MetricsRegistry::histogram()` etc.) take a mutex and
/// belong on slow paths only; callers cache the returned references, which
/// are stable for the registry's lifetime.
///
/// `HistogramSnapshot` is the plain-data view shared by live extraction
/// and the wire: the server encodes snapshots into kStatsResponse
/// (server/protocol.hpp) and a client decodes them back into the same
/// type, so p50/p90/p99/max extraction is written once here.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mpx::obs {

// --- histogram bucket scheme ------------------------------------------------
//
// HDR-style log-linear buckets over u64 values (the repo records
// nanoseconds). Values below 2^kHistogramSubBucketBits map to their own
// exact bucket; above that, each power-of-two octave splits into
// 2^kHistogramSubBucketBits linear sub-buckets, so every bucket's width is
// at most 1/16 of its lower bound and any reported quantile is within
// +6.25% of the exact sample (tests/test_obs.cpp pins this bound).

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per octave.
inline constexpr unsigned kHistogramSubBucketBits = 4;
inline constexpr std::uint64_t kHistogramSubBuckets =
    1ull << kHistogramSubBucketBits;

/// Total bucket count for the full u64 range: 16 exact low buckets plus
/// 60 octaves x 16 sub-buckets = 976.
inline constexpr std::size_t kHistogramBucketCount =
    (64 - kHistogramSubBucketBits + 1) * kHistogramSubBuckets;

/// The bucket holding `value`. Monotone in `value`; exact below 16.
[[nodiscard]] constexpr std::size_t histogram_bucket_index(
    std::uint64_t value) {
  if (value < kHistogramSubBuckets) return static_cast<std::size_t>(value);
  const unsigned high = 63u - static_cast<unsigned>(std::countl_zero(value));
  const unsigned shift = high - kHistogramSubBucketBits;
  const auto sub = static_cast<std::size_t>((value >> shift) &
                                            (kHistogramSubBuckets - 1));
  return (high - kHistogramSubBucketBits + 1) * kHistogramSubBuckets + sub;
}

/// Smallest value mapping to bucket `index`.
[[nodiscard]] constexpr std::uint64_t histogram_bucket_lower(
    std::size_t index) {
  if (index < kHistogramSubBuckets) return index;
  const std::size_t group = index >> kHistogramSubBucketBits;
  const std::uint64_t sub = index & (kHistogramSubBuckets - 1);
  return (kHistogramSubBuckets + sub) << (group - 1);
}

/// Largest value mapping to bucket `index`.
[[nodiscard]] constexpr std::uint64_t histogram_bucket_upper(
    std::size_t index) {
  if (index < kHistogramSubBuckets) return index;
  const std::size_t group = index >> kHistogramSubBucketBits;
  return histogram_bucket_lower(index) + ((1ull << (group - 1)) - 1);
}

static_assert(histogram_bucket_index(~0ull) == kHistogramBucketCount - 1,
              "the top bucket must hold the largest u64");

// --- snapshots --------------------------------------------------------------

/// One occupied histogram bucket: the scheme index and its count.
struct HistogramBucket {
  std::uint16_t index = 0;
  std::uint64_t count = 0;

  friend bool operator==(const HistogramBucket&,
                         const HistogramBucket&) = default;
};

/// Plain-data histogram state: what `LatencyHistogram::snapshot()`
/// extracts and what kStatsResponse carries. `buckets` holds only
/// occupied buckets, in strictly ascending index order (the canonical
/// form; the wire decoder rejects anything else).
struct HistogramSnapshot {
  std::uint64_t count = 0;  ///< total recorded samples
  std::uint64_t sum = 0;    ///< sum of recorded values
  std::uint64_t max = 0;    ///< largest recorded value (exact)
  std::vector<HistogramBucket> buckets;

  /// The q-quantile (q in [0, 1]) as an upper bound on the exact sample
  /// at that rank: the result is >= the exact value and within +1/16 of
  /// it (bucket width), clamped to `max`. 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  /// Arithmetic mean of the recorded values; 0 when empty.
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Fold `other` into this snapshot (bucket-wise sum, max of maxes).
  /// Associative and commutative — worker-local histograms merge in any
  /// order to the same result (tests pin this).
  void merge(const HistogramSnapshot& other);

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Named counter value in a registry snapshot.
struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;

  friend bool operator==(const CounterSnapshot&,
                         const CounterSnapshot&) = default;
};

/// Named gauge value in a registry snapshot.
struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;

  friend bool operator==(const GaugeSnapshot&, const GaugeSnapshot&) = default;
};

/// Named histogram in a registry snapshot.
struct NamedHistogram {
  std::string name;
  HistogramSnapshot histogram;

  friend bool operator==(const NamedHistogram&,
                         const NamedHistogram&) = default;
};

/// Everything a registry holds, in name-sorted order per section.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<NamedHistogram> histograms;

  /// The named histogram, or nullptr when absent.
  [[nodiscard]] const HistogramSnapshot* histogram(
      std::string_view name) const;
  /// The named gauge's value, or `fallback` when absent.
  [[nodiscard]] std::int64_t gauge_or(std::string_view name,
                                      std::int64_t fallback = 0) const;
  /// The named counter's value, or `fallback` when absent.
  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0) const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

// --- live instruments -------------------------------------------------------

/// Monotone event counter. All operations are relaxed atomics: totals are
/// exact, cross-metric ordering is not promised.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time signed level (queue depths, resident bytes).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-size log-bucketed value histogram (see the bucket scheme above).
/// record() is lock-free and wait-free on every field; many threads may
/// record into one histogram concurrently. snapshot() may run concurrently
/// with record() — it sees each field atomically but not a cross-field
/// point-in-time cut, so `count` may trail the bucket totals by in-flight
/// records (readers must not assume exact equality).
class LatencyHistogram {
 public:
  /// Record one value (nanoseconds by repo convention).
  void record(std::uint64_t value) noexcept {
    buckets_[histogram_bucket_index(value)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  /// Record a duration given in seconds (negative clamps to zero).
  void record_seconds(double seconds) noexcept {
    record(seconds <= 0.0 ? 0
                          : static_cast<std::uint64_t>(seconds * 1e9));
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// Extract the occupied buckets (canonical sparse form).
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBucketCount> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Longest metric name the registry (and the wire) accepts.
inline constexpr std::size_t kMaxMetricNameBytes = 255;

/// Named instrument store. Lookup-or-create takes a mutex; the returned
/// references are stable for the registry's lifetime, so callers register
/// once at setup and record lock-free thereafter. Names must be non-empty
/// and at most kMaxMetricNameBytes (std::invalid_argument otherwise).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] LatencyHistogram& histogram(std::string_view name);

  /// Every instrument's current state, name-sorted per section.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

}  // namespace mpx::obs
