// Open-loop point-query generator: one thread drives a fixed-rate schedule
// of kQueryRequest frames over a few pipelined connections, using only the
// public frame encoders and decoders of server/protocol.hpp. Sends never
// wait on replies (poll-driven non-blocking I/O), and every latency is
// timed from the request's *scheduled* send time, so a server stall shows
// up in every request scheduled behind it rather than silently slowing the
// generator down (no coordinated omission).
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "common.hpp"
#include "core/decomposer.hpp"
#include "server/protocol.hpp"

namespace mpxbench {

/// One scheduled point query and the answer the in-process reference gives.
struct PointQuery {
  mpx::server::QueryKind kind = mpx::server::QueryKind::kClusterOf;
  mpx::vertex_t u = 0;
  mpx::vertex_t v = 0;
  std::uint64_t expected = 0;
};

struct OpenLoopResult {
  Samples latency_s;       ///< answered requests, from their scheduled time
  Samples send_lag_s;      ///< how late each request was handed to its socket
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;  ///< correct answers
  std::uint64_t wrong = 0;     ///< answers that differ from the expectation
  std::uint64_t errors = 0;    ///< kErrorResponse replies
  std::uint64_t missing = 0;   ///< no reply before the drain deadline
  std::uint64_t over_limit = 0;  ///< replies later than the latency limit

  [[nodiscard]] std::uint64_t failed() const {
    return wrong + errors + missing;
  }
};

/// Send `rate` queries per second for `seconds`, round-robin over `fds`
/// (connected stream sockets to a DecompServer; switched to non-blocking),
/// all against `request`. Query i is `next(i)`, due at start + i / rate.
/// Replies still outstanding `drain_s` after the last send are counted
/// missing. `limit_s` only feeds `over_limit`. With a recorder, each
/// reply adds a `client.query` span from its due time to its arrival.
[[nodiscard]] OpenLoopResult run_open_loop(
    std::span<const int> fds, const mpx::DecompositionRequest& request,
    double rate, double seconds, double limit_s, double drain_s,
    const std::function<PointQuery(std::uint64_t)>& next,
    SpanRecorder* rec = nullptr);

/// Keep `window` queries outstanding on each of `fds` for `seconds`,
/// sending the next as soon as a reply frees a slot: the server runs
/// saturated, with queueing bounded by the window. Latency is timed from
/// the send of every 16th request; `sent` counts requests, `answered`
/// correct replies.
/// Replies still outstanding `drain_s` after the window closes are missing.
[[nodiscard]] OpenLoopResult run_window(
    std::span<const int> fds, const mpx::DecompositionRequest& request,
    std::size_t window, double seconds, double drain_s,
    const std::function<PointQuery(std::uint64_t)>& next);

/// Connect a blocking stream socket to the Unix-domain socket at `path`;
/// throws std::runtime_error on failure.
[[nodiscard]] int connect_unix_fd(const std::string& path);

}  // namespace mpxbench
