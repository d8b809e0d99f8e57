/// \file
/// \brief DecompServer: the standing, concurrent decomposition query
/// service around SharedResultStore.
///
/// The server turns the in-process store (core/session.hpp) into the
/// process boundary the ROADMAP's serving layer calls for. One `.mpxs`
/// snapshot is mapped **once** (zero-copy) into one fleet-wide
/// `SharedResultStore`: a result computed (or warm-loaded) once is served
/// by every worker, and a response's `from_cache` bit is a fleet-wide
/// property rather than a per-worker accident.
///
/// Connections are **never pinned to workers**, and there is no dispatcher
/// thread: the workers take turns leading (leader/followers). The one
/// leader polls the listener and every parked connection; when bytes or
/// write space arrive it claims one ready connection, hands the poll to
/// the next idle worker, and serves the claim itself — non-blocking
/// reads/writes, the complete frames it buffered (responses stay in
/// request order per connection — the protocol's pipelining guarantee) —
/// then parks it again. Workers never block on sockets: a stalled sender
/// or a non-draining reader costs a poll slot, not a worker. Zero-copy
/// framing: array-carrying responses are written straight out of the
/// stored result (protocol.hpp EncodedFrame), with the store entry's
/// shared_ptr parked beside the frame until the last byte flushes.
///
/// Lifecycle: construct with a `ServerConfig`, `start()` (binds, loads
/// the graph, spawns the worker pool — throws with a
/// `path: errno-message` string when the socket is unavailable), then
/// either `wait()` for a stop (client kShutdownRequest or
/// `request_stop()`) or call `stop()` directly. Shutdown is graceful:
/// in-flight requests finish, then connections and the listener close.
/// Warm-start: `ServerConfig::warm` entries are loaded into the shared
/// store before the first connection is accepted (their boundary lists
/// and distance oracles are built by the first query that needs them).
///
/// Per-request telemetry (counts by type, error count, summed service
/// seconds, fd-exhaustion backoffs, write-timeout drops, store and block
/// cache occupancy, the metrics registry) is exposed via `stats()` — the
/// same StatsResponse a client's kStatsRequest receives.
///
/// Only Unix-like hosts have the socket transports; elsewhere `start()`
/// throws std::runtime_error (the protocol layer itself is portable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/decomposer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/protocol.hpp"

namespace mpx::server {

/// One decomposition to restore into the shared result store before
/// serving (SharedResultStore::load_cached).
struct WarmStartEntry {
  DecompositionRequest request;  ///< cache key the file restores
  std::string path;              ///< decomposition file (save_cached output)
};

/// Everything the server needs to stand up.
struct ServerConfig {
  /// `.mpxs` snapshot to serve; mapped zero-copy once, shared by every
  /// worker. Required.
  std::string snapshot_path;
  /// Unix-domain socket path. When non-empty, the server listens here
  /// (and unlinks the path on clean shutdown).
  std::string socket_path;
  /// Loopback TCP port, used when `socket_path` is empty. 0 picks an
  /// ephemeral port; read it back with DecompServer::port().
  std::uint16_t tcp_port = 0;
  /// Worker threads; the server runs exactly this many, one of which
  /// polls the connections at a time.
  int workers = 1;
  /// Cached decompositions to restore into the shared store before
  /// serving.
  std::vector<WarmStartEntry> warm;
  /// Fleet-wide result-store bound. Request keys are client-controlled
  /// (every distinct algorithm/beta/seed is a new cached result), so an
  /// unbounded store is an OOM waiting for a long-lived deployment: once
  /// the store exceeds this many entries it is cleared and the `warm`
  /// entries restored (entries still referenced by in-flight responses
  /// stay alive until those responses flush). 0 disables the bound.
  std::size_t max_cached_results = 256;
  /// Seconds a connection may sit with queued response bytes and a peer
  /// that accepts none of them before the server drops it (counted in
  /// StatsResponse::write_timeouts). Any write progress resets the clock.
  /// 0 disables the timeout. Granularity is the server's poll interval
  /// (~200 ms).
  double write_timeout = 30.0;
  /// Byte budget for decoded cold-tier blocks (SessionConfig semantics):
  /// 0 always materializes the snapshot in memory; nonzero serves a cold
  /// unweighted snapshot whose full-residency estimate exceeds the budget
  /// **paged** — only "mpx" decomposes, and the info response reports the
  /// block cache's lifetime hit/miss/eviction counters.
  std::uint64_t memory_budget_bytes = 0;
  /// When non-empty, record per-request spans (service, decompose
  /// phases, response_write) in a 64Ki-span ring (oldest overwritten) and
  /// export them as Chrome trace-event JSON to this path when the server
  /// stops (docs/OBSERVABILITY.md).
  std::string trace_path;
};

class DecompServer {
 public:
  explicit DecompServer(ServerConfig config);
  ~DecompServer();  ///< stops and joins if still running

  DecompServer(const DecompServer&) = delete;
  DecompServer& operator=(const DecompServer&) = delete;

  /// Map the snapshot, restore warm-start entries, bind the socket, and
  /// spawn the worker pool. Throws std::runtime_error with a
  /// `mpx::server: <path>: <errno message>` string when the socket path
  /// or port is unavailable, and std::invalid_argument on a bad config
  /// (no snapshot, workers < 1).
  void start();

  /// Ask the server to stop; returns immediately. Safe from any thread,
  /// including workers (a client kShutdownRequest uses this internally).
  void request_stop();

  /// Block until a stop has been requested, then join every thread and
  /// release the socket. Call from the owning thread (not a worker).
  void wait();

  /// request_stop() + wait(): graceful synchronous shutdown.
  void stop();

  /// True between start() and the completion of shutdown.
  [[nodiscard]] bool running() const;
  /// True once a stop has been requested (wait() will return promptly).
  [[nodiscard]] bool stop_requested() const;

  /// The bound TCP port (after start(); meaningful when socket_path is
  /// empty). Lets tests and benches bind port 0 and discover the result.
  [[nodiscard]] std::uint16_t port() const;

  [[nodiscard]] const ServerConfig& config() const;
  /// The server's full stats snapshot (what kStatsRequest answers).
  [[nodiscard]] StatsResponse stats() const;

  /// Snapshot of the server's metrics registry (what kStatsResponse
  /// carries in its generic sections). Valid after start().
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

  /// The trace recorder, or nullptr when tracing is off (no trace_path).
  /// Valid after start(); the pointer is stable until destruction.
  [[nodiscard]] const obs::TraceRecorder* trace() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mpx::server
