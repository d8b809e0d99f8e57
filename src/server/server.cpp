#include "server/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/session.hpp"
#include "server/protocol.hpp"
#include "support/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MPX_SERVER_HAVE_SOCKETS 1
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include "server/socket_util.hpp"
#endif

namespace mpx::server {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("mpx::server: " + what);
}

#if MPX_SERVER_HAVE_SOCKETS

/// The promised "clear path:errno message" for unavailable sockets.
[[noreturn]] void fail_errno(const std::string& path) {
  fail(path + ": " + std::strerror(errno));
}

/// Leader poll interval: the upper bound on accept-backoff and
/// write-timeout latency.
inline constexpr int kPollMillis = 200;

/// Complete frames one worker handles per connection claim before the
/// connection is parked again — the fairness cap that keeps one
/// deeply-pipelined client from starving interleaved ones.
inline constexpr int kMaxFramesPerTurn = 32;

/// Response backpressure: while a connection has more queued unsent
/// response bytes than this, the server stops reading more requests from
/// it (docs/PROTOCOL.md documents the bound as the pipelining flow-control
/// contract).
inline constexpr std::size_t kOutboxPauseBytes = 4u << 20;

/// Cap on buffered-but-unparsed request bytes per connection; always
/// enough for at least one maximal request frame.
inline constexpr std::size_t kInbufPauseBytes =
    2 * (kFrameHeaderBytes + kMaxRequestPayloadBytes);

/// recv granularity for the non-blocking read path.
inline constexpr std::size_t kReadChunkBytes = 64u << 10;

/// Span ring capacity when tracing (oldest spans overwritten).
inline constexpr std::size_t kTraceSpans = 1u << 16;

/// An application-level rejection raised inside a request handler; the
/// service loop turns it into a kErrorResponse (the connection survives).
struct HandlerError {
  ErrorCode code;
  std::string message;
};

/// One client connection's full state. Ownership alternates: a parked
/// connection is touched only by the leader (the one worker polling), a
/// claimed one only by the worker that claimed it; every transition
/// happens under the server mutex, which makes the handoff race-free
/// without per-connection locks.
struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}

  int fd = -1;
  /// Claimed by a worker (else parked in the leader's poll set).
  bool claimed = false;
  /// Parked with complete frames still buffered and room in the outbox
  /// (the per-claim frame cap ran out): ready without waiting in poll.
  bool runnable = false;
  /// Value of Impl::claims when this connection was last claimed; the
  /// leader serves the least recently claimed ready connection first.
  std::uint64_t last_claim = 0;

  // Inbound: raw bytes, parsed up to `inpos` (frames may arrive split or
  // back-to-back — pipelining).
  std::vector<std::uint8_t> inbuf;
  std::size_t inpos = 0;
  bool saw_eof = false;

  /// One queued response frame plus the store entry its zero-copy chunks
  /// view (null for owned-only frames); `chunk`/`offset` is the flush
  /// cursor.
  struct Outbound {
    EncodedFrame frame;
    std::shared_ptr<const MaterializedDecomposition> keepalive;
    std::size_t chunk = 0;
    std::size_t offset = 0;
    /// Enqueue instant (steady ns); feeds the server.response_write
    /// histogram / trace span at retirement.
    std::uint64_t enqueued_ns = 0;
  };
  std::deque<Outbound> outbox;  ///< responses in request order
  std::size_t outbox_bytes = 0;
  /// Hot-path memo: the store entry the last run/query on this
  /// connection resolved, keyed by its request. Point queries that
  /// repeat the request (the dominant serving pattern) skip the store's
  /// mutex + map entirely. Determinism makes this safe across store
  /// evictions — a recompute of the same key yields identical bytes —
  /// at the cost of pinning at most one entry per connection.
  DecompositionRequest memo_request;
  std::shared_ptr<const MaterializedDecomposition> memo_entry;
  /// Last instant a write made progress while the outbox was non-empty
  /// (the write-timeout clock).
  std::chrono::steady_clock::time_point write_stalled_since{};
  /// Flush the outbox, then close: set by kShutdownRequest and by
  /// stream-desynchronizing errors (bad header, oversized payload),
  /// after any earlier in-order responses — the protocol's error
  /// resynchronization rule.
  bool close_after_flush = false;
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Steady-clock nanoseconds, the observability timestamp base (durations
/// only; never compared across processes).
[[nodiscard]] std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Slot of the per-request-type service histogram in Impl::h_service, or
/// -1 for frames outside the request set (shutdown, stray responses).
[[nodiscard]] int service_slot(MessageType type) {
  switch (type) {
    case MessageType::kInfoRequest: return 0;
    case MessageType::kRunRequest: return 1;
    case MessageType::kQueryRequest: return 2;
    case MessageType::kBoundaryRequest: return 3;
    case MessageType::kBatchRequest: return 4;
    case MessageType::kStatsRequest: return 5;
    default: return -1;
  }
}

/// Static span label for a serviced frame's trace event.
[[nodiscard]] const char* service_span_name(MessageType type) {
  switch (type) {
    case MessageType::kInfoRequest: return "service.info";
    case MessageType::kRunRequest: return "service.run";
    case MessageType::kQueryRequest: return "service.query";
    case MessageType::kBoundaryRequest: return "service.boundary";
    case MessageType::kBatchRequest: return "service.batch";
    case MessageType::kStatsRequest: return "service.stats";
    case MessageType::kShutdownRequest: return "service.shutdown";
    default: return "service.other";
  }
}

[[nodiscard]] std::uint64_t seconds_to_ns(double seconds) {
  return seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0;
}

#endif  // MPX_SERVER_HAVE_SOCKETS

}  // namespace

struct DecompServer::Impl {
  ServerConfig config;

  std::unique_ptr<SharedResultStore> store;  // the fleet-wide result cache

  int listen_fd = -1;
  int wake_fds[2] = {-1, -1};  ///< self-pipe: interrupts the leader's poll
  std::uint16_t bound_port = 0;
  std::atomic<bool> started{false};
  std::atomic<bool> stopping{false};
  std::atomic<bool> joined{false};

  /// Set the stop flag under the mutex (so a cv waiter between its
  /// predicate check and its sleep cannot miss the wakeup) and wake
  /// everyone, the poll-blocked leader included.
  void signal_stop() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping.store(true);
    }
    follower_cv.notify_all();
    stop_cv.notify_all();
    wake_leader();
  }

  void wake_leader() {
#if MPX_SERVER_HAVE_SOCKETS
    if (wake_fds[1] >= 0) {
      const char byte = 1;
      (void)::write(wake_fds[1], &byte, 1);  // pipe full = already awake
    }
#endif
  }

  std::vector<std::thread> workers;
  std::mutex mutex;  ///< guards conns, claims, leadership and the flags below
  std::condition_variable follower_cv;  ///< idle workers wait to lead here
  std::condition_variable stop_cv;      ///< wait() waits here
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  /// Leader/followers: at most one worker at a time (the leader) polls
  /// the listener, the wake pipe and every parked connection; the others
  /// wait on follower_cv. The leader claims one ready connection, hands
  /// leadership to the next idle worker and serves the claim itself.
  bool have_leader = false;
  /// True while the leader sleeps in poll() on a snapshot of conns that
  /// a newly parked connection would miss. The first worker to park one
  /// clears it and writes the wake pipe; later parks in the same window
  /// skip the syscall, since the leader re-snapshots every parked
  /// connection anyway.
  bool leader_polling = false;
  /// Claims so far; stamps Connection::last_claim.
  std::uint64_t claims = 0;
  /// Listener exclusion window after an fd-exhaustion accept failure;
  /// touched only by the current leader.
  std::chrono::steady_clock::time_point accept_backoff_until{};

  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> info_requests{0};
  std::atomic<std::uint64_t> run_requests{0};
  std::atomic<std::uint64_t> query_requests{0};
  std::atomic<std::uint64_t> boundary_requests{0};
  std::atomic<std::uint64_t> batch_requests{0};
  std::atomic<std::uint64_t> stats_requests{0};
  std::atomic<std::uint64_t> accept_backoffs{0};
  std::atomic<std::uint64_t> write_timeouts{0};
  std::atomic<std::uint64_t> service_nanos{0};

  // --- Observability (docs/OBSERVABILITY.md) ---
  /// Registry behind kStatsResponse's generic sections. Instruments are
  /// registered once in start() (below); the serving path records through
  /// the cached pointers lock-free.
  obs::MetricsRegistry metrics;
  /// Per-request-type service latency, indexed by service_slot().
  obs::LatencyHistogram* h_service[6] = {};
  obs::LatencyHistogram* h_response_write = nullptr;  ///< enqueue → last byte
  obs::Gauge* g_outbox_bytes = nullptr;     ///< live, summed across conns
  obs::Gauge* g_store_resident = nullptr;   ///< refreshed per snapshot
  obs::Gauge* g_cache_blocks = nullptr;     ///< refreshed per snapshot
  obs::Gauge* g_cache_bytes = nullptr;      ///< refreshed per snapshot
  /// Span ring when config.trace_path is set; null otherwise (the span
  /// record sites all guard on this).
  std::unique_ptr<obs::TraceRecorder> tracer;

  /// Re-derive the snapshot-time gauges from their sources (the live
  /// outbox gauge is maintained incrementally by enqueue/flush/close).
  void refresh_gauges() {
    if (g_store_resident == nullptr || store == nullptr) return;
    g_store_resident->set(static_cast<std::int64_t>(store->size()));
    const storage::ShardedBlockCache::Stats cache = store->cache_stats();
    g_cache_blocks->set(static_cast<std::int64_t>(cache.resident_blocks));
    g_cache_bytes->set(static_cast<std::int64_t>(cache.resident_bytes));
  }

  /// The kStatsResponse body: the fixed lifetime counters, store and
  /// block-cache occupancy, and the registry snapshot. The one source of
  /// both the wire answer and DecompServer::stats().
  [[nodiscard]] StatsResponse stats_response() {
    StatsResponse out;
    out.connections = connections.load(std::memory_order_relaxed);
    out.requests = requests.load(std::memory_order_relaxed);
    out.errors = errors.load(std::memory_order_relaxed);
    out.info_requests = info_requests.load(std::memory_order_relaxed);
    out.run_requests = run_requests.load(std::memory_order_relaxed);
    out.query_requests = query_requests.load(std::memory_order_relaxed);
    out.boundary_requests = boundary_requests.load(std::memory_order_relaxed);
    out.batch_requests = batch_requests.load(std::memory_order_relaxed);
    out.stats_requests = stats_requests.load(std::memory_order_relaxed);
    out.accept_backoffs = accept_backoffs.load(std::memory_order_relaxed);
    out.write_timeouts = write_timeouts.load(std::memory_order_relaxed);
    out.service_seconds =
        static_cast<double>(service_nanos.load(std::memory_order_relaxed)) /
        1e9;
    if (store != nullptr) {
      out.results_computed = store->computes();
      out.store_resident_results = store->size();
      out.store_computes = out.results_computed;
      const storage::ShardedBlockCache::Stats cache = store->cache_stats();
      out.cache_hits = cache.hits;
      out.cache_misses = cache.misses;
      out.cache_evictions = cache.evictions;
      out.cache_resident_blocks = cache.resident_blocks;
      out.cache_resident_bytes = cache.resident_bytes;
    }
    refresh_gauges();
    out.metrics = metrics.snapshot();
    return out;
  }

#if MPX_SERVER_HAVE_SOCKETS
  void open_listener();
  void accept_new();
  void worker_loop(std::uint32_t worker_id);
  /// Poll as the leader until a parked connection is ready to serve and
  /// return it, or null once the server stops. Called and returns with
  /// `lock` held; releases it around poll().
  [[nodiscard]] Connection* lead(std::unique_lock<std::mutex>& lock,
                                 std::vector<pollfd>& pfds,
                                 std::vector<Connection*>& polled);
  /// Read, handle and flush one claimed connection; false closes it.
  [[nodiscard]] bool service(Connection& conn, std::uint32_t worker_id);
  /// Non-blocking flush of the outbox front; false on a dead transport.
  [[nodiscard]] bool flush(Connection& conn);
  /// Non-blocking read of whatever the socket holds (bounded by
  /// kInbufPauseBytes); false on a dead transport.
  [[nodiscard]] bool read_available(Connection& conn);
  void handle_frame(Connection& conn, const FrameHeader& header,
                    std::span<const std::uint8_t> payload,
                    std::uint32_t worker_id);
  /// Point the connection's entry memo at `request`'s store entry,
  /// acquiring it unless the memo already holds that request: a client
  /// repeating one request skips the store's mutex and map.
  void memoize_entry(Connection& conn, const DecompositionRequest& request,
                     std::uint32_t worker_id);
  /// Record the response_write observation for a fully flushed frame.
  void retire_frame(const Connection& conn, const Connection::Outbound& done);
  /// Synthesize decompose-phase spans for a cold acquire from its run
  /// telemetry: the store computed [shift][search][assemble] back to
  /// back, ending (approximately) now, on this worker's lane.
  void record_decompose_trace(const RunTelemetry& t,
                              std::uint32_t worker_id);
  void enqueue(Connection& conn, EncodedFrame frame,
               std::shared_ptr<const MaterializedDecomposition> keepalive =
                   nullptr);
  void enqueue_error(Connection& conn, ErrorCode code,
                     const std::string& message);
  void restore_warm(bool strict);
  void enforce_cache_bound();
#endif
};

#if MPX_SERVER_HAVE_SOCKETS

void DecompServer::Impl::restore_warm(bool strict) {
  for (const WarmStartEntry& entry : config.warm) {
    if (!store->load_cached(entry.request, entry.path)) {
      // At start() a missing file is an operator error; after a runtime
      // eviction (the file may have been deleted since) the entry is
      // simply recomputed on demand.
      if (strict) fail(entry.path + ": warm-start file not found");
    }
  }
}

/// Request keys are client-controlled, so the shared result store would
/// otherwise grow one MaterializedDecomposition per distinct request
/// forever. Over the bound: drop everything, restore the warm set.
/// Entries referenced by queued responses stay alive through their
/// keepalive shared_ptrs. Called after every store acquire — the only
/// operation that can grow the store — so memoized point queries skip
/// the store mutex entirely.
void DecompServer::Impl::enforce_cache_bound() {
  if (config.max_cached_results == 0) return;
  if (store->size() <= config.max_cached_results) return;
  store->clear();
  restore_warm(/*strict=*/false);
}

void DecompServer::Impl::open_listener() {
  if (!config.socket_path.empty()) {
    sockaddr_un addr{};
    if (!detail::fill_unix_address(config.socket_path, addr)) {
      fail(config.socket_path + ": socket path longer than sun_path (" +
           std::to_string(sizeof(addr.sun_path) - 1) + " bytes)");
    }
    // Reclaim a stale socket file left by a crashed server (which never
    // reached the clean-shutdown unlink). Only an actual socket that
    // refuses connections is removed: a live server still fails the bind
    // below with EADDRINUSE, and a non-socket file at the path is never
    // touched (it is not ours to delete).
    struct stat st {};
    if (::lstat(config.socket_path.c_str(), &st) == 0 &&
        S_ISSOCK(st.st_mode)) {
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (probe >= 0) {
        const bool refused =
            ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0 &&
            errno == ECONNREFUSED;
        ::close(probe);
        if (refused) ::unlink(config.socket_path.c_str());
      }
    }
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) fail_errno(config.socket_path);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int saved = errno;
      ::close(listen_fd);
      listen_fd = -1;
      errno = saved;
      fail_errno(config.socket_path);
    }
  } else {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    const std::string where =
        "127.0.0.1:" + std::to_string(config.tcp_port);
    if (listen_fd < 0) fail_errno(where);
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config.tcp_port);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int saved = errno;
      ::close(listen_fd);
      listen_fd = -1;
      errno = saved;
      fail_errno(where);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_port = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd, 64) != 0) {
    const int saved = errno;
    ::close(listen_fd);
    listen_fd = -1;
    errno = saved;
    fail_errno(config.socket_path.empty()
                   ? "127.0.0.1:" + std::to_string(bound_port)
                   : config.socket_path);
  }
  set_nonblocking(listen_fd);
}

void DecompServer::Impl::accept_new() {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
      // EMFILE/ENFILE/ENOBUFS/ENOMEM (and anything else persistent): the
      // listener stays POLLIN-ready with a backlog we cannot drain, so
      // polling it again immediately would busy-spin. Exclude it from
      // the poll set for one interval; pending connections stay in the
      // backlog and are accepted once descriptors free up.
      accept_backoffs.fetch_add(1, std::memory_order_relaxed);
      accept_backoff_until =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(kPollMillis);
      return;
    }
    set_nonblocking(fd);
    detail::disable_sigpipe(fd);
    if (config.socket_path.empty()) detail::disable_nagle(fd);
    connections.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex);
      conns.emplace(fd, std::make_unique<Connection>(fd));
    }
  }
}

void DecompServer::Impl::worker_loop(std::uint32_t worker_id) {
  std::vector<pollfd> pfds;
  std::vector<Connection*> polled;
  std::unique_lock<std::mutex> lock(mutex);
  for (;;) {
    if (stopping.load(std::memory_order_relaxed)) return;
    if (have_leader) {
      follower_cv.wait(lock);
      continue;
    }
    have_leader = true;
    Connection* conn = lead(lock, pfds, polled);
    have_leader = false;
    if (conn == nullptr) return;
    conn->claimed = true;
    conn->last_claim = ++claims;
    lock.unlock();
    // Hand the poll to an idle worker before serving, so the other ready
    // connections never wait behind this one's (possibly cold) work.
    follower_cv.notify_one();
    bool keep = false;
    try {
      keep = service(*conn, worker_id);
    } catch (const std::exception&) {
      // A connection must never take its worker down (e.g. bad_alloc on
      // a huge-but-in-bounds payload claim); drop it and serve the next.
    }
    lock.lock();
    if (!keep) {
      g_outbox_bytes->add(-static_cast<std::int64_t>(conn->outbox_bytes));
      ::close(conn->fd);
      conns.erase(conn->fd);
      continue;
    }
    conn->claimed = false;
    // A leader asleep in poll() snapshotted the parked set without this
    // connection: interrupt it so it re-snapshots. Outside that window
    // the next snapshot picks the connection up anyway.
    if (leader_polling) {
      leader_polling = false;
      lock.unlock();
      wake_leader();
      lock.lock();
    }
  }
}

Connection* DecompServer::Impl::lead(std::unique_lock<std::mutex>& lock,
                                     std::vector<pollfd>& pfds,
                                     std::vector<Connection*>& polled) {
  const bool timeout_enabled = config.write_timeout > 0.0;
  const auto write_timeout = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(timeout_enabled ? config.write_timeout
                                                    : 0.0));
  while (!stopping.load(std::memory_order_relaxed)) {
    pfds.clear();
    polled.clear();
    pfds.push_back(pollfd{wake_fds[0], POLLIN, 0});
    const bool listener_polled =
        std::chrono::steady_clock::now() >= accept_backoff_until;
    if (listener_polled) pfds.push_back(pollfd{listen_fd, POLLIN, 0});
    const std::size_t first_conn = pfds.size();
    bool any_runnable = false;
    for (auto& [fd, conn] : conns) {
      if (conn->claimed) continue;
      short events = 0;
      if (!conn->outbox.empty()) events |= POLLOUT;
      if (!conn->saw_eof && !conn->close_after_flush &&
          conn->outbox_bytes <= kOutboxPauseBytes &&
          conn->inbuf.size() - conn->inpos <= kInbufPauseBytes) {
        events |= POLLIN;
      }
      // Neither the socket nor buffered frames can make it ready.
      if (events == 0 && !conn->runnable) continue;
      any_runnable = any_runnable || conn->runnable;
      pfds.push_back(pollfd{fd, events, 0});
      polled.push_back(conn.get());
    }
    leader_polling = true;
    lock.unlock();
    // A runnable connection is ready now: poll only to collect the other
    // ready ones, so buffered frames never jump the queue.
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                          any_runnable ? 0 : kPollMillis);
    const int poll_errno = errno;
    if (rc > 0 && (pfds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(wake_fds[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (rc > 0 && listener_polled && (pfds[1].revents & POLLIN) != 0) {
      accept_new();
    }
    lock.lock();
    leader_polling = false;
    if (rc < 0 && poll_errno != EINTR) return nullptr;  // unrecoverable
    // Only the leader claims a parked connection, so every polled one is
    // still parked and alive.
    Connection* pick = nullptr;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = first_conn; i < pfds.size(); ++i) {
      Connection* conn = polled[i - first_conn];
      if (conn->runnable ||
          (pfds[i].revents &
           (POLLIN | POLLOUT | POLLERR | POLLHUP | POLLNVAL)) != 0) {
        if (pick == nullptr || conn->last_claim < pick->last_claim) {
          pick = conn;
        }
        continue;
      }
      // No progress possible: a non-empty outbox whose peer accepts no
      // bytes for write_timeout gets dropped (the dead-reader guard).
      if (timeout_enabled && !conn->outbox.empty() &&
          now - conn->write_stalled_since >= write_timeout) {
        write_timeouts.fetch_add(1, std::memory_order_relaxed);
        g_outbox_bytes->add(-static_cast<std::int64_t>(conn->outbox_bytes));
        ::close(conn->fd);
        conns.erase(conn->fd);
      }
    }
    if (pick != nullptr) return pick;
  }
  return nullptr;
}

bool DecompServer::Impl::flush(Connection& conn) {
  while (!conn.outbox.empty()) {
    // Gather a vectored batch from the front of the outbox: with
    // zero-copy frames this writes header bytes and borrowed array bytes
    // in one syscall, no intermediate copy.
    iovec iov[16];
    int iov_count = 0;
    for (auto it = conn.outbox.begin();
         it != conn.outbox.end() && iov_count < 16; ++it) {
      for (std::size_t c = it->chunk;
           c < it->frame.chunks.size() && iov_count < 16; ++c) {
        const std::span<const std::uint8_t> chunk = it->frame.chunks[c];
        const std::size_t offset = c == it->chunk ? it->offset : 0;
        if (chunk.size() == offset) continue;
        iov[iov_count].iov_base =
            const_cast<std::uint8_t*>(chunk.data()) + offset;
        iov[iov_count].iov_len = chunk.size() - offset;
        ++iov_count;
      }
    }
    if (iov_count == 0) {
      retire_frame(conn, conn.outbox.front());
      conn.outbox.pop_front();
      continue;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(iov_count);
#if defined(MSG_NOSIGNAL)
    const ssize_t sent = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
#else
    const ssize_t sent = ::sendmsg(conn.fd, &msg, MSG_DONTWAIT);
#endif
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // parked
      return false;
    }
    conn.write_stalled_since = std::chrono::steady_clock::now();
    conn.outbox_bytes -= static_cast<std::size_t>(sent);
    g_outbox_bytes->add(-static_cast<std::int64_t>(sent));
    // Advance the flush cursor across frames/chunks, retiring completed
    // frames (and releasing their keepalive store entries).
    std::size_t remaining = static_cast<std::size_t>(sent);
    while (remaining > 0 || (!conn.outbox.empty() &&
                             conn.outbox.front().chunk ==
                                 conn.outbox.front().frame.chunks.size())) {
      Connection::Outbound& front = conn.outbox.front();
      while (front.chunk < front.frame.chunks.size()) {
        const std::size_t chunk_bytes =
            front.frame.chunks[front.chunk].size() - front.offset;
        if (chunk_bytes == 0) {
          ++front.chunk;
          front.offset = 0;
          continue;
        }
        const std::size_t take = std::min(chunk_bytes, remaining);
        front.offset += take;
        remaining -= take;
        if (front.offset == front.frame.chunks[front.chunk].size()) {
          ++front.chunk;
          front.offset = 0;
        }
        if (remaining == 0) break;
      }
      if (front.chunk == front.frame.chunks.size()) {
        retire_frame(conn, front);
        conn.outbox.pop_front();
      } else {
        break;  // partial frame: the cursor holds the position
      }
    }
  }
  return true;
}

void DecompServer::Impl::retire_frame(const Connection& conn,
                                      const Connection::Outbound& done) {
  const std::uint64_t now = steady_now_ns();
  const std::uint64_t dur = now > done.enqueued_ns ? now - done.enqueued_ns : 0;
  h_response_write->record(dur);
  if (tracer != nullptr) {
    const std::uint64_t trace_now = tracer->now_ns();
    tracer->record(obs::TraceSpan{
        "response_write", "server", static_cast<std::uint32_t>(conn.fd),
        trace_now > dur ? trace_now - dur : 0, dur});
  }
}

void DecompServer::Impl::memoize_entry(Connection& conn,
                                       const DecompositionRequest& request,
                                       std::uint32_t worker_id) {
  if (conn.memo_entry != nullptr && conn.memo_request == request) return;
  const SharedResultStore::Acquired acquired = store->acquire(request);
  if (tracer != nullptr && !acquired.from_cache) {
    record_decompose_trace(acquired.entry->result().telemetry, worker_id);
  }
  conn.memo_entry = acquired.entry;
  conn.memo_request = request;
  enforce_cache_bound();  // only an acquire can exceed the bound
}

void DecompServer::Impl::record_decompose_trace(const RunTelemetry& t,
                                                std::uint32_t worker_id) {
  // The acquire returned moments ago, so lay the phases out back to back
  // ending now; per-round interleaving is collapsed into one block per
  // phase (the histogram side keeps the exact per-phase totals).
  const std::uint64_t total = seconds_to_ns(t.total_seconds);
  const std::uint64_t end = tracer->now_ns();
  const std::uint64_t start = end > total ? end - total : 0;
  const std::uint64_t shift = seconds_to_ns(t.shift_seconds);
  const std::uint64_t search = seconds_to_ns(t.search_seconds);
  const std::uint64_t assemble = seconds_to_ns(t.assemble_seconds);
  tracer->record(obs::TraceSpan{"decompose", "decomp", worker_id, start,
                                total});
  tracer->record(obs::TraceSpan{"decompose.shift", "decomp", worker_id,
                                start, shift});
  tracer->record(obs::TraceSpan{"decompose.search", "decomp", worker_id,
                                start + shift, search});
  tracer->record(obs::TraceSpan{"decompose.assemble", "decomp", worker_id,
                                start + shift + search, assemble});
}

bool DecompServer::Impl::read_available(Connection& conn) {
  // Receive into a scratch block and append only the bytes that actually
  // arrived. Growing inbuf first (resize + recv in place) looks cheaper
  // but value-initializes the full chunk — a 64 KiB memset per service
  // turn that dwarfs a small request's entire handling cost.
  std::uint8_t scratch[kReadChunkBytes];
  while (conn.inbuf.size() - conn.inpos < kInbufPauseBytes) {
    const ssize_t n = ::recv(conn.fd, scratch, sizeof(scratch), MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    if (n == 0) {
      conn.saw_eof = true;
      return true;
    }
    conn.inbuf.insert(conn.inbuf.end(), scratch,
                      scratch + static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof(scratch)) return true;
  }
  return true;
}

namespace {

/// True when the parse position holds a complete frame — or bytes that
/// will immediately produce a (stream-closing) error, which is work too.
bool complete_frame_buffered(const Connection& conn) {
  const std::size_t available = conn.inbuf.size() - conn.inpos;
  if (available < kFrameHeaderBytes) return false;
  try {
    const FrameHeader header = decode_frame_header(
        std::span<const std::uint8_t>(conn.inbuf.data() + conn.inpos,
                                      kFrameHeaderBytes));
    if (header.payload_bytes > kMaxRequestPayloadBytes) return true;
    return available >= kFrameHeaderBytes + header.payload_bytes;
  } catch (const ProtocolError&) {
    return true;
  }
}

}  // namespace

bool DecompServer::Impl::service(Connection& conn, std::uint32_t worker_id) {
  if (!flush(conn)) return false;
  if (!conn.saw_eof && !conn.close_after_flush &&
      conn.outbox_bytes <= kOutboxPauseBytes) {
    if (!read_available(conn)) return false;
  }

  int handled = 0;
  while (!conn.close_after_flush && handled < kMaxFramesPerTurn &&
         !stopping.load(std::memory_order_relaxed)) {
    const std::size_t available = conn.inbuf.size() - conn.inpos;
    if (available < kFrameHeaderBytes) break;
    FrameHeader header;
    try {
      header = decode_frame_header(std::span<const std::uint8_t>(
          conn.inbuf.data() + conn.inpos, kFrameHeaderBytes));
      if (header.payload_bytes > kMaxRequestPayloadBytes) {
        throw ProtocolError(
            "request payload of " + std::to_string(header.payload_bytes) +
            " bytes exceeds the request-direction limit (" +
            std::to_string(kMaxRequestPayloadBytes) + ")");
      }
    } catch (const ProtocolError& e) {
      // The stream is unsynchronized past this point. Pipelining's error
      // resynchronization rule: every earlier in-order response is
      // already queued ahead, then this error frame, then close.
      requests.fetch_add(1, std::memory_order_relaxed);
      errors.fetch_add(1, std::memory_order_relaxed);
      enqueue(conn, make_owned_frame(encode_message(
                        MessageType::kErrorResponse,
                        ErrorResponse{ErrorCode::kMalformedPayload,
                                      e.what()})));
      conn.close_after_flush = true;
      break;
    }
    if (available < kFrameHeaderBytes + header.payload_bytes) break;
    const std::span<const std::uint8_t> payload(
        conn.inbuf.data() + conn.inpos + kFrameHeaderBytes,
        static_cast<std::size_t>(header.payload_bytes));
    conn.inpos += kFrameHeaderBytes + header.payload_bytes;
    ++handled;

    WallTimer timer;
    try {
      handle_frame(conn, header, payload, worker_id);
    } catch (const HandlerError& e) {
      enqueue_error(conn, e.code, e.message);
    } catch (const ProtocolError& e) {
      enqueue_error(conn, ErrorCode::kMalformedPayload, e.what());
    } catch (const std::invalid_argument& e) {
      enqueue_error(conn, ErrorCode::kInvalidRequest, e.what());
    } catch (const std::exception& e) {
      enqueue_error(conn, ErrorCode::kInternal, e.what());
    }
    requests.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t elapsed_ns =
        static_cast<std::uint64_t>(timer.seconds() * 1e9);
    service_nanos.fetch_add(elapsed_ns, std::memory_order_relaxed);
    // Per-type service latency + the service trace span reuse the timer
    // that already feeds StatsResponse::service_seconds — no extra clock
    // read on the metrics path.
    const int slot = service_slot(header.type);
    if (slot >= 0) h_service[slot]->record(elapsed_ns);
    if (tracer != nullptr) {
      const std::uint64_t trace_now = tracer->now_ns();
      tracer->record(obs::TraceSpan{
          service_span_name(header.type), "server", worker_id,
          trace_now > elapsed_ns ? trace_now - elapsed_ns : 0, elapsed_ns});
    }
    // Keep queued response memory bounded while a pipelining client
    // blasts requests: push bytes to the socket between frames.
    if (conn.outbox_bytes > kOutboxPauseBytes && !flush(conn)) return false;
  }

  // Reclaim consumed input (fully drained: cheap clear; else compact so
  // a pathological trickle cannot grow the buffer unboundedly).
  if (conn.inpos == conn.inbuf.size()) {
    conn.inbuf.clear();
    conn.inpos = 0;
  } else if (conn.inpos >= kReadChunkBytes) {
    conn.inbuf.erase(conn.inbuf.begin(),
                     conn.inbuf.begin() +
                         static_cast<std::ptrdiff_t>(conn.inpos));
    conn.inpos = 0;
  }

  if (!flush(conn)) return false;
  conn.runnable = false;
  if (conn.close_after_flush) return !conn.outbox.empty();
  if (complete_frame_buffered(conn)) {
    // More parsed work is already buffered; skip the poll round-trip
    // unless backpressure wants the outbox drained first.
    conn.runnable = conn.outbox_bytes <= kOutboxPauseBytes;
    return true;
  }
  // After EOF nothing more will arrive; any trailing partial frame is
  // dropped.
  return !conn.saw_eof || !conn.outbox.empty();
}

void DecompServer::Impl::enqueue(
    Connection& conn, EncodedFrame frame,
    std::shared_ptr<const MaterializedDecomposition> keepalive) {
  if (conn.outbox.empty()) {
    conn.write_stalled_since = std::chrono::steady_clock::now();
  }
  const std::size_t frame_bytes = frame.total_bytes();
  conn.outbox_bytes += frame_bytes;
  g_outbox_bytes->add(static_cast<std::int64_t>(frame_bytes));
  Connection::Outbound out;
  out.frame = std::move(frame);
  out.keepalive = std::move(keepalive);
  out.enqueued_ns = steady_now_ns();
  conn.outbox.push_back(std::move(out));
}

void DecompServer::Impl::enqueue_error(Connection& conn, ErrorCode code,
                                       const std::string& message) {
  errors.fetch_add(1, std::memory_order_relaxed);
  enqueue(conn, make_owned_frame(encode_message(MessageType::kErrorResponse,
                                                ErrorResponse{code, message})));
}

void DecompServer::Impl::handle_frame(Connection& conn,
                                      const FrameHeader& header,
                                      std::span<const std::uint8_t> payload,
                                      std::uint32_t worker_id) {
  const vertex_t n = store->num_vertices();
  switch (header.type) {
    case MessageType::kInfoRequest: {
      (void)decode_info_request(payload);
      info_requests.fetch_add(1, std::memory_order_relaxed);
      InfoResponse info;
      info.num_vertices = n;
      info.num_edges = store->num_edges();
      info.weighted = store->weighted();
      info.workers = static_cast<std::uint16_t>(config.workers);
      info.requests_served = requests.load(std::memory_order_relaxed);
      const storage::ShardedBlockCache::Stats cache = store->cache_stats();
      info.cache_hits = cache.hits;
      info.cache_misses = cache.misses;
      info.cache_evictions = cache.evictions;
      enqueue(conn,
              make_owned_frame(encode_message(MessageType::kInfoResponse,
                                              info)));
      return;
    }
    case MessageType::kRunRequest: {
      const RunRequest req = decode_run_request(payload);
      run_requests.fetch_add(1, std::memory_order_relaxed);
      const SharedResultStore::Acquired acquired =
          store->acquire(req.request);
      if (tracer != nullptr && !acquired.from_cache) {
        record_decompose_trace(acquired.entry->result().telemetry,
                               worker_id);
      }
      // Only an acquire can push the store over its bound (the acquired
      // entry itself stays alive through the shared_ptr regardless).
      enforce_cache_bound();
      const DecompositionResult& result = acquired.entry->result();
      RunResponse out;
      out.num_clusters = result.num_clusters();
      out.is_weighted = result.weighted();
      out.from_cache = acquired.from_cache;
      out.rounds = result.telemetry.rounds;
      out.phases = result.telemetry.phases;
      out.arcs_scanned = result.telemetry.arcs_scanned;
      out.has_arrays = req.include_arrays;
      conn.memo_entry = acquired.entry;
      conn.memo_request = req.request;
      // Zero-copy: the frame's array chunks view the stored result; the
      // entry rides along as the keepalive until the bytes flush.
      enqueue(conn,
              encode_run_response_frame(out, result.owner, result.settle),
              acquired.entry);
      return;
    }
    case MessageType::kQueryRequest: {
      query_requests.fetch_add(1, std::memory_order_relaxed);
      const QueryRequest req = decode_query_request(payload);
      validate_request(req.request);
      if (req.u >= n || (req.kind == QueryKind::kDistance && req.v >= n)) {
        throw HandlerError{
            ErrorCode::kOutOfRange,
            "vertex out of range (n=" + std::to_string(n) + ")"};
      }
      if (req.kind == QueryKind::kDistance) {
        const AlgorithmInfo* info = find_algorithm(req.request.algorithm);
        if (info != nullptr && info->needs_weights) {
          throw HandlerError{
              ErrorCode::kUnsupportedQuery,
              "distance estimates serve unweighted algorithms; '" +
                  req.request.algorithm + "' produces real-valued radii"};
        }
      }
      memoize_entry(conn, req.request, worker_id);
      const MaterializedDecomposition& entry = *conn.memo_entry;
      QueryResponse out;
      switch (req.kind) {
        case QueryKind::kClusterOf:
          out.value = entry.cluster_of(req.u);
          break;
        case QueryKind::kOwnerOf:
          out.value = entry.owner_of(req.u);
          break;
        case QueryKind::kDistance:
          // The first distance query on an entry builds its oracle.
          out.value = entry.estimate_distance(req.u, req.v);
          break;
      }
      std::vector<std::uint8_t> frame;
      encode_query_response_frame_into(frame, out);
      enqueue(conn, make_owned_frame(std::move(frame)));
      return;
    }
    case MessageType::kBoundaryRequest: {
      const BoundaryRequest req = decode_boundary_request(payload);
      boundary_requests.fetch_add(1, std::memory_order_relaxed);
      memoize_entry(conn, req.request, worker_id);
      // Zero-copy: the edge-list chunk views the stored boundary.
      enqueue(conn,
              encode_boundary_response_frame(conn.memo_entry->boundary_arcs()),
              conn.memo_entry);
      return;
    }
    case MessageType::kBatchRequest: {
      const BatchRequest req = decode_batch_request(payload);
      batch_requests.fetch_add(1, std::memory_order_relaxed);
      const std::vector<SharedResultStore::Acquired> acquired =
          store->acquire_batch(req.base, req.betas);
      if (tracer != nullptr) {
        for (const SharedResultStore::Acquired& a : acquired) {
          if (!a.from_cache) {
            record_decompose_trace(a.entry->result().telemetry, worker_id);
          }
        }
      }
      enforce_cache_bound();  // only an acquire can exceed the bound
      BatchResponse out;
      out.entries.reserve(acquired.size());
      for (std::size_t i = 0; i < acquired.size(); ++i) {
        BatchEntry entry;
        entry.beta = req.betas[i];
        entry.num_clusters = acquired[i].entry->num_clusters();
        entry.rounds = acquired[i].entry->result().telemetry.rounds;
        entry.boundary_edges = acquired[i].entry->boundary_arcs().size();
        out.entries.push_back(entry);
      }
      enqueue(conn,
              make_owned_frame(encode_message(MessageType::kBatchResponse,
                                              out)));
      return;
    }
    case MessageType::kStatsRequest: {
      (void)decode_stats_request(payload);
      stats_requests.fetch_add(1, std::memory_order_relaxed);
      enqueue(conn, make_owned_frame(encode_message(
                        MessageType::kStatsResponse, stats_response())));
      return;
    }
    case MessageType::kShutdownRequest: {
      (void)decode_shutdown_request(payload);
      conn.close_after_flush = true;
      // Queue the ack first (the final flush pushes it out), then the
      // stop flag drains the pool; in-flight requests finish.
      enqueue(conn,
              make_owned_frame(encode_message(MessageType::kShutdownResponse,
                                              ShutdownResponse{})));
      signal_stop();
      return;
    }
    case MessageType::kInfoResponse:
    case MessageType::kRunResponse:
    case MessageType::kQueryResponse:
    case MessageType::kBoundaryResponse:
    case MessageType::kBatchResponse:
    case MessageType::kStatsResponse:
    case MessageType::kShutdownResponse:
    case MessageType::kErrorResponse:
      break;
  }
  // A response type arriving at the server is a peer bug; drop the
  // connection after answering so the stream cannot drift further.
  conn.close_after_flush = true;
  throw ProtocolError("unexpected response-type frame " +
                      std::to_string(static_cast<int>(header.type)) +
                      " sent to a server");
}

#endif  // MPX_SERVER_HAVE_SOCKETS

DecompServer::DecompServer(ServerConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = std::move(config);
}

DecompServer::~DecompServer() {
  if (impl_ != nullptr && impl_->started.load()) stop();
}

const ServerConfig& DecompServer::config() const { return impl_->config; }

std::uint16_t DecompServer::port() const { return impl_->bound_port; }

bool DecompServer::running() const {
  return impl_->started.load() && !(impl_->stopping.load() && impl_->joined);
}

bool DecompServer::stop_requested() const { return impl_->stopping.load(); }

StatsResponse DecompServer::stats() const { return impl_->stats_response(); }

obs::MetricsSnapshot DecompServer::metrics_snapshot() const {
  impl_->refresh_gauges();
  return impl_->metrics.snapshot();
}

const obs::TraceRecorder* DecompServer::trace() const {
  return impl_->tracer.get();
}

#if MPX_SERVER_HAVE_SOCKETS

void DecompServer::start() {
  Impl& impl = *impl_;
  if (impl.started.load()) fail("start() called twice");
  if (impl.config.snapshot_path.empty()) {
    throw std::invalid_argument("mpx::server: config.snapshot_path is empty");
  }
  if (impl.config.workers < 1) {
    throw std::invalid_argument("mpx::server: config.workers must be >= 1");
  }

  // Map the snapshot once (or page it under the memory budget); every
  // worker serves from the one store.
  impl.store = SharedResultStore::open_snapshot(
      impl.config.snapshot_path,
      SessionConfig{impl.config.memory_budget_bytes});
  impl.restore_warm(/*strict=*/true);

  // Register every instrument once, before any serving thread exists:
  // the cached pointers are stable for the registry's lifetime, so the
  // hot path records without touching the registry mutex.
  impl.h_service[0] = &impl.metrics.histogram("server.service.info");
  impl.h_service[1] = &impl.metrics.histogram("server.service.run");
  impl.h_service[2] = &impl.metrics.histogram("server.service.query");
  impl.h_service[3] = &impl.metrics.histogram("server.service.boundary");
  impl.h_service[4] = &impl.metrics.histogram("server.service.batch");
  impl.h_service[5] = &impl.metrics.histogram("server.service.stats");
  impl.h_response_write = &impl.metrics.histogram("server.response_write");
  impl.g_outbox_bytes = &impl.metrics.gauge("server.outbox_bytes");
  impl.g_store_resident = &impl.metrics.gauge("store.resident_results");
  impl.g_cache_blocks = &impl.metrics.gauge("cache.resident_blocks");
  impl.g_cache_bytes = &impl.metrics.gauge("cache.resident_bytes");
  impl.store->set_metrics(&impl.metrics);
  if (!impl.config.trace_path.empty()) {
    impl.tracer =
        std::make_unique<obs::TraceRecorder>(kTraceSpans);
  }

  impl.open_listener();
  if (::pipe(impl.wake_fds) != 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
    fail_errno("wake pipe");
  }
  set_nonblocking(impl.wake_fds[0]);
  set_nonblocking(impl.wake_fds[1]);
  impl.stopping.store(false);
  impl.joined = false;
  impl.started.store(true);
  impl.workers.reserve(static_cast<std::size_t>(impl.config.workers));
  for (int i = 0; i < impl.config.workers; ++i) {
    const std::uint32_t worker_id = static_cast<std::uint32_t>(i);
    impl.workers.emplace_back(
        [&impl, worker_id] { impl.worker_loop(worker_id); });
  }
}

void DecompServer::request_stop() { impl_->signal_stop(); }

void DecompServer::wait() {
  Impl& impl = *impl_;
  if (!impl.started.load()) return;
  {
    std::unique_lock<std::mutex> lock(impl.mutex);
    impl.stop_cv.wait(lock, [&] { return impl.stopping.load(); });
    if (impl.joined.exchange(true)) return;
  }
  for (std::thread& worker : impl.workers) {
    if (worker.joinable()) worker.join();
  }
  impl.workers.clear();
  for (auto& [fd, conn] : impl.conns) ::close(fd);
  impl.conns.clear();
  // Every queued-but-unflushed response died with its connection.
  if (impl.g_outbox_bytes != nullptr) impl.g_outbox_bytes->set(0);
  if (impl.tracer != nullptr && !impl.config.trace_path.empty()) {
    (void)impl.tracer->write_chrome_trace(impl.config.trace_path);
  }
  if (impl.listen_fd >= 0) {
    ::close(impl.listen_fd);
    impl.listen_fd = -1;
  }
  for (int& fd : impl.wake_fds) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  if (!impl.config.socket_path.empty()) {
    ::unlink(impl.config.socket_path.c_str());
  }
  impl.store.reset();
}

void DecompServer::stop() {
  request_stop();
  wait();
}

#else  // !MPX_SERVER_HAVE_SOCKETS

void DecompServer::start() {
  fail("socket transports are unavailable on this platform");
}
void DecompServer::request_stop() {}
void DecompServer::wait() {}
void DecompServer::stop() {}

#endif  // MPX_SERVER_HAVE_SOCKETS

}  // namespace mpx::server
