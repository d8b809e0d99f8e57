// The four workloads and the metric vocabulary they share.
//
// Every workload reports the same end-to-end metrics (untraced run) and
// the same per-layer metrics (traced run); a layer a workload does not
// exercise reads 0 there, which is itself a prediction the README states.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.hpp"
#include "core/decomposer.hpp"
#include "support/random.hpp"

namespace mpxbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files (snapshots, sockets) go here
};

/// Set-ups per run: kSetupWarmups unmeasured ones (the first set-ups of a
/// process run slower while the allocator and page cache settle), then
/// kSetupReps measured ones whose median is setup_s; the last is kept.
/// (mesh-paged, whose set-up includes a ~1.2 s cold warm-up call, measures
/// 3.)
inline constexpr int kSetupWarmups = 1;
inline constexpr int kSetupReps = 7;

/// The decomposition every workload requests: the paper's algorithm at the
/// ROADMAP's beta, with the request seed as the only varying field.
[[nodiscard]] inline mpx::DecompositionRequest mpx_request(
    std::uint64_t seed) {
  mpx::DecompositionRequest req;
  req.algorithm = "mpx";
  req.beta = 0.1;
  req.seed = seed;
  return req;
}

/// Request seed number `i` of the stream a workload seed generates.
[[nodiscard]] inline std::uint64_t request_seed(std::uint64_t workload_seed,
                                                std::uint64_t i) {
  return mpx::hash_stream(workload_seed, i);
}

/// The end-to-end metrics (same names on every workload).
struct EndToEnd {
  double setup_s = 0.0;
  double latency_p50_ms = 0.0;
  double throughput_per_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// The per-layer metrics, keyed by name; names a workload leaves unset
/// read 0.
using LayerValues = std::map<std::string, double>;

/// Append the end-to-end or per-layer metrics to `out.metrics`.
void emit_end_to_end(Outcome& out, const EndToEnd& e);
void emit_layers(Outcome& out, const LayerValues& layers);

Outcome run_mesh(const RunOptions& opt, bool paged, SpanRecorder& rec);
Outcome run_serve(const RunOptions& opt, bool churn, SpanRecorder& rec);

}  // namespace mpxbench
