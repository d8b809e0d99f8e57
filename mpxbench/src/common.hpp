// Shared pieces of the mpx benchmark: sample statistics with the
// percentile-support rule, the failure tally, the in-memory span recorder,
// the machine record, peak-RSS probes and the result printer.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mpxbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

/// Seconds elapsed since `start` (a now_s() reading).
[[nodiscard]] inline double since(double start) { return now_s() - start; }

/// A percentile is emitted only when at least this many samples lie beyond
/// its rank; below that the tail is a handful of outliers, not a quantile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// A bag of measured values (latencies, phase times, counts).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;
  /// The median (mean of the two middle values for an even count); 0 when
  /// empty.
  [[nodiscard]] double median() const;
  /// Nearest-rank q-quantile (rank ceil(q * n)), or nothing when fewer
  /// than kMinSamplesBeyond samples lie beyond that rank.
  [[nodiscard]] std::optional<double> percentile(double q) const;

 private:
  std::vector<double> values_;
};

/// Operations attempted and failed (a wrong answer, an error reply or a
/// reply that never came). The first few failures are described on stderr.
class Tally {
 public:
  void ok() { ++attempted_; }
  void fail(const std::string& why);
  /// Count one operation whose output `matches` its expectation.
  void check(bool matches, const std::string& what) {
    if (matches) {
      ok();
    } else {
      fail(what);
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] double failed_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// 64-bit fingerprint of an array's bytes, for comparing a result with its
/// expectation without keeping both.
[[nodiscard]] std::uint64_t fingerprint(std::span<const std::uint32_t> words,
                                        std::uint64_t seed = 0);

/// Fingerprint of an owner/settle pair.
[[nodiscard]] std::uint64_t fingerprint_result(
    std::span<const std::uint32_t> owner,
    std::span<const std::uint32_t> settle);

/// One span: a call into a layer, timed from the benchmark's side.
struct Span {
  const char* name = "";  ///< a string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< the benchmark request it belongs to
  double start_s = 0.0;       ///< now_s() clock
  double end_s = 0.0;
};

/// Spans kept in memory (main thread only) and written as Chrome
/// trace-event JSON at exit. Disabled recorders record nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a span under the innermost open one; returns its id (0 when
  /// disabled).
  std::uint64_t open(const char* name, std::uint64_t request);
  void close(std::uint64_t id);
  /// Record an already-finished child of `parent` (phase times a layer
  /// reported through its own counters).
  void add(const char* name, std::uint64_t parent, std::uint64_t request,
           double start_s, double end_s);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Write every span as Trace Event Format "X" events; false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::uint64_t request = 0)
      : rec_(rec), id_(rec.open(name, request)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

/// Reset the process's peak-RSS mark to its current RSS (Linux
/// /proc/self/clear_refs); false when unsupported.
bool reset_peak_rss();
/// Peak resident set size since the last reset, in MiB (0 when unknown).
[[nodiscard]] double peak_rss_mib();

/// OpenMP team size a freshly spawned thread would use (the process-wide
/// default every server worker inherits).
[[nodiscard]] int default_omp_team();

/// What the numbers were measured on and with.
struct MachineRecord {
  int hardware_threads = 0;
  int omp_team = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string git_sha;
  std::string src_digest;
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
};

[[nodiscard]] MachineRecord machine_record(const std::string& workload,
                                           std::uint64_t seed, bool trace);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 when the value is not a sample statistic
};

/// What a workload run produces: the metrics of the requested kind, the
/// full report (every named number, for humans), and the tally.
struct Outcome {
  std::vector<Metric> metrics;  ///< the final JSON line's metrics
  std::vector<Metric> report;   ///< printed above it
  Tally tally;
};

/// Print the machine record and report lines, then the final JSON line.
void print_outcome(const MachineRecord& machine, const Outcome& outcome);

/// Median and highest supported tail (p99, else p90) of `s`, appended to
/// `out` as `<prefix>_p50_<unit>` and `<prefix>_p99_<unit>` /
/// `<prefix>_p90_<unit>`, scaled by `scale`.
void report_latency(std::vector<Metric>& out, const std::string& prefix,
                    const std::string& unit, const Samples& s,
                    double scale);

}  // namespace mpxbench
