// Tests for the decomposition server (src/server/server.hpp) and client
// (src/server/client.hpp): served answers byte-identical to the
// in-process DecompositionSession across the golden fixtures and
// 1/2/8 worker threads, application-level error responses, malformed
// wire bytes answered with kErrorResponse (never an abort), concurrent
// clients, warm start via load_cached, graceful shutdown, and the
// clear-error contract for unavailable socket paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/socket_util.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/golden.hpp"
#include "tests/support/temp_dir.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MPX_TEST_HAVE_SOCKETS 1
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace mpx::server {
namespace {

#if MPX_TEST_HAVE_SOCKETS

DecompositionRequest request(double beta, std::uint64_t seed = 42,
                             const char* algorithm = "mpx") {
  DecompositionRequest req;
  req.algorithm = algorithm;
  req.beta = beta;
  req.seed = seed;
  return req;
}

/// A raw (frame-less) connection for the malformed-bytes tests; -1 when
/// the path is unusable.
int connect_raw(const std::string& socket_path) {
  sockaddr_un addr{};
  if (!detail::fill_unix_address(socket_path, addr)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking exact read on a raw fd; false on EOF or error.
bool read_exact(int fd, std::uint8_t* into, std::size_t bytes) {
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::recv(fd, into + got, bytes - got, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// One framed round trip on a raw fd (tests that manage the socket
/// themselves, e.g. across an fd-exhaustion window).
InfoResponse raw_info_round_trip(int fd) {
  const std::vector<std::uint8_t> frame =
      encode_message(MessageType::kInfoRequest, InfoRequest{});
  EXPECT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  std::uint8_t header_bytes[kFrameHeaderBytes];
  EXPECT_TRUE(read_exact(fd, header_bytes, sizeof(header_bytes)));
  const FrameHeader header = decode_frame_header(header_bytes);
  EXPECT_EQ(header.type, MessageType::kInfoResponse);
  std::vector<std::uint8_t> payload(header.payload_bytes);
  EXPECT_TRUE(read_exact(fd, payload.data(), payload.size()));
  return decode_info_response(payload);
}

/// A server over `snapshot` on a unix socket inside `dir`, plus the
/// matching in-process session for expected answers.
struct ServedSnapshot {
  ServedSnapshot(const mpx::testing::TempDir& dir,
                 const std::string& snapshot_path, int workers,
                 std::vector<WarmStartEntry> warm = {})
      : session(DecompositionSession::open_snapshot(snapshot_path)) {
    ServerConfig config;
    config.snapshot_path = snapshot_path;
    config.socket_path =
        dir.file("serve_w" + std::to_string(workers) + ".sock");
    config.workers = workers;
    config.warm = std::move(warm);
    server = std::make_unique<DecompServer>(std::move(config));
    server->start();
  }

  ~ServedSnapshot() {
    if (server != nullptr) server->stop();
  }

  [[nodiscard]] DecompClient connect() const {
    return DecompClient::connect_unix(server->config().socket_path);
  }

  DecompositionSession session;  // the in-process reference
  std::unique_ptr<DecompServer> server;
};

/// The acceptance criterion: a served run + cluster_of / boundary_arcs /
/// estimate_distance sequence answers byte-identically to the in-process
/// session for the same requests.
void expect_served_matches_session(DecompClient& client,
                                   DecompositionSession& session,
                                   const DecompositionRequest& req,
                                   bool expect_weighted) {
  const DecompositionResult& expected = session.run(req);

  const RunResponse run = client.run(req, /*include_arrays=*/true);
  EXPECT_EQ(run.num_clusters, expected.num_clusters());
  EXPECT_EQ(run.is_weighted, expected.weighted());
  EXPECT_EQ(run.is_weighted, expect_weighted);
  EXPECT_EQ(run.rounds, expected.telemetry.rounds);
  EXPECT_EQ(run.arcs_scanned, expected.telemetry.arcs_scanned);
  ASSERT_TRUE(run.has_arrays);
  EXPECT_EQ(run.owner, expected.owner);    // byte-identical arrays
  EXPECT_EQ(run.settle, expected.settle);

  const vertex_t n = session.topology().num_vertices();
  for (vertex_t v = 0; v < n; v += (n > 64 ? 13 : 1)) {
    EXPECT_EQ(client.cluster_of(v, req), session.cluster_of(v, req));
    EXPECT_EQ(client.owner_of(v, req), session.owner_of(v, req));
  }

  const std::vector<Edge> served_boundary = client.boundary_arcs(req);
  const std::span<const Edge> expected_boundary = session.boundary_arcs(req);
  ASSERT_EQ(served_boundary.size(), expected_boundary.size());
  for (std::size_t i = 0; i < served_boundary.size(); ++i) {
    EXPECT_EQ(served_boundary[i], expected_boundary[i]);
  }

  if (!expect_weighted) {
    for (vertex_t u = 0; u < n; u += (n > 64 ? 29 : 2)) {
      for (vertex_t v = 0; v < n; v += (n > 64 ? 31 : 3)) {
        EXPECT_EQ(client.estimate_distance(u, v, req),
                  session.estimate_distance(u, v, req));
      }
    }
  }
}

TEST(Server, ServedAnswersMatchSessionAcrossGoldenFixturesAndWorkers) {
  mpx::testing::TempDir dir("mpx_server");
  struct Fixture {
    std::string path;
    const char* algorithm;
    bool weighted;
  };
  // The checked-in golden snapshots plus a larger generated one (the
  // goldens pin the format; the grid exercises multi-round searches).
  const std::string grid_path = dir.file("grid20.mpxs");
  io::save_snapshot(grid_path, generators::grid2d(20, 20));
  const std::vector<Fixture> fixtures = {
      {mpx::testing::golden_path("grid_3x3.mpxs"), "mpx", false},
      {mpx::testing::golden_path("grid_3x3_weighted.mpxs"), "mpx-weighted",
       true},
      {grid_path, "mpx", false},
  };
  for (const Fixture& fixture : fixtures) {
    for (const int workers : {1, 2, 8}) {
      SCOPED_TRACE(fixture.path + " workers=" + std::to_string(workers));
      ServedSnapshot served(dir, fixture.path, workers);
      DecompClient client = served.connect();
      expect_served_matches_session(client, served.session,
                                    request(0.4, 7, fixture.algorithm),
                                    fixture.weighted);
    }
  }
}

TEST(Server, BatchMatchesSessionRunBatch) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(16, 16));
  ServedSnapshot served(dir, path, 2);
  DecompClient client = served.connect();

  const std::vector<double> betas = {0.5, 0.2, 0.1};
  const BatchResponse batch = client.batch(request(0.1), betas);
  ASSERT_EQ(batch.entries.size(), betas.size());
  const auto expected = served.session.run_batch(request(0.1), betas);
  DecompositionRequest per_beta = request(0.1);
  for (std::size_t i = 0; i < betas.size(); ++i) {
    per_beta.beta = betas[i];
    EXPECT_EQ(batch.entries[i].beta, betas[i]);
    EXPECT_EQ(batch.entries[i].num_clusters, expected[i]->num_clusters());
    EXPECT_EQ(batch.entries[i].rounds, expected[i]->telemetry.rounds);
    EXPECT_EQ(batch.entries[i].boundary_edges,
              served.session.boundary_arcs(per_beta).size());
  }
}

TEST(Server, InfoDescribesTheServedGraph) {
  mpx::testing::TempDir dir("mpx_server");
  const CsrGraph g = generators::grid2d(10, 10);
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, g);
  ServedSnapshot served(dir, path, 2);
  DecompClient client = served.connect();

  const InfoResponse info = client.info();
  EXPECT_EQ(info.num_vertices, g.num_vertices());
  EXPECT_EQ(info.num_edges, g.num_edges());
  EXPECT_FALSE(info.weighted);
  EXPECT_EQ(info.workers, 2);
}

TEST(Server, RepeatRequestsHitTheWorkerCache) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(12, 12));
  ServedSnapshot served(dir, path, 1);
  DecompClient client = served.connect();

  EXPECT_FALSE(client.run(request(0.3)).from_cache);
  EXPECT_TRUE(client.run(request(0.3)).from_cache);
  EXPECT_FALSE(client.run(request(0.5)).from_cache);  // new entry
}

TEST(Server, QueryMemoTracksRequestSwitchesOnOneConnection) {
  // The per-connection entry memo must never serve a stale entry:
  // interleave point queries of two requests with run() calls that
  // repoint the memo at a different decomposition, and check every
  // answer against the session.
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(12, 12));
  ServedSnapshot served(dir, path, 1);
  DecompClient client = served.connect();

  const DecompositionRequest a = request(0.3);
  const DecompositionRequest b = request(0.5, 99);
  const vertex_t n = served.session.topology().num_vertices();
  for (vertex_t v = 0; v < n; v += 17) {
    EXPECT_EQ(client.cluster_of(v, a), served.session.cluster_of(v, a));
  }
  (void)client.run(b);  // repoints the connection memo at b's entry
  for (vertex_t v = 0; v < n; v += 17) {
    // Same request as the earlier queries: must not hit b's entry.
    EXPECT_EQ(client.cluster_of(v, a), served.session.cluster_of(v, a));
    EXPECT_EQ(client.cluster_of(v, b), served.session.cluster_of(v, b));
    EXPECT_EQ(client.owner_of(v, a), served.session.owner_of(v, a));
  }
}

TEST(Server, RejectsBadRequestsWithTypedErrors) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(8, 8));
  ServedSnapshot served(dir, path, 1);
  DecompClient client = served.connect();

  const auto expect_error = [&](auto&& call, ErrorCode want) {
    try {
      call();
      FAIL() << "expected ServerError";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), want);
    }
  };
  expect_error([&] { (void)client.run(request(0.0)); },
               ErrorCode::kInvalidRequest);  // beta outside (0, 1]
  expect_error([&] { (void)client.run(request(0.3, 1, "no-such-algo")); },
               ErrorCode::kInvalidRequest);
  expect_error([&] { (void)client.cluster_of(1'000'000, request(0.3)); },
               ErrorCode::kOutOfRange);
  expect_error([&] { (void)client.estimate_distance(0, 1'000'000,
                                                    request(0.3)); },
               ErrorCode::kOutOfRange);
  // A weights-requiring algorithm on an unweighted graph is refused with
  // the facade's invalid_argument, carried as kInvalidRequest.
  expect_error([&] { (void)client.run(request(0.3, 1, "mpx-weighted")); },
               ErrorCode::kInvalidRequest);

  // The connection survives every rejection above.
  EXPECT_EQ(client.cluster_of(0, request(0.3)),
            served.session.cluster_of(0, request(0.3)));
}

TEST(Server, RejectsDistanceEstimatesForWeightedAlgorithms) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid_w.mpxs");
  io::save_snapshot(path, mpx::testing::grid3x3_weighted_reference());
  ServedSnapshot served(dir, path, 1);
  DecompClient client = served.connect();
  const DecompositionRequest weighted = request(0.4, 1, "mpx-weighted");
  const auto expect_unsupported = [&] {
    try {
      (void)client.estimate_distance(0, 1, weighted);
      FAIL() << "expected ServerError";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnsupportedQuery);
    }
  };
  expect_unsupported();
  // A served point query memoizes the weighted entry on this connection;
  // the refusal must not depend on whether that memo is warm.
  EXPECT_EQ(client.cluster_of(0, weighted),
            served.session.cluster_of(0, weighted));
  expect_unsupported();
}

TEST(Server, AnswersMalformedBytesWithErrorResponseAndSurvives) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(6, 6));
  ServedSnapshot served(dir, path, 2);
  const std::string socket_path = served.server->config().socket_path;

  // Raw connection sending 16 bytes of garbage where a frame header
  // belongs: the server must answer kErrorResponse and drop the
  // connection — never abort.
  {
    const int fd = connect_raw(socket_path);
    ASSERT_GE(fd, 0);
    const char garbage[16] = "not a frame!!!!";
    ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
              static_cast<ssize_t>(sizeof(garbage)));
    std::uint8_t header_bytes[kFrameHeaderBytes];
    std::size_t got = 0;
    while (got < sizeof(header_bytes)) {
      const ssize_t n = ::recv(fd, header_bytes + got,
                               sizeof(header_bytes) - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<std::size_t>(n);
    }
    const FrameHeader header = decode_frame_header(header_bytes);
    EXPECT_EQ(header.type, MessageType::kErrorResponse);
    std::vector<std::uint8_t> payload(header.payload_bytes);
    got = 0;
    while (got < payload.size()) {
      const ssize_t n =
          ::recv(fd, payload.data() + got, payload.size() - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<std::size_t>(n);
    }
    const ErrorResponse err = decode_error_response(payload);
    EXPECT_EQ(err.code, ErrorCode::kMalformedPayload);
    ::close(fd);
  }

  // A well-framed frame whose *payload* is garbage keeps the stream in
  // sync: the server answers the error and the connection stays usable.
  {
    DecompClient client = served.connect();
    // New clients still work after the garbage connection...
    EXPECT_EQ(client.info().num_vertices, 36u);
  }
  EXPECT_GE(served.server->stats().errors, 1u);
}

TEST(Server, RejectsOversizedRequestPayloadsBeforeAllocating) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(4, 4));
  ServedSnapshot served(dir, path, 1);
  const std::string socket_path = served.server->config().socket_path;

  // A well-formed header claiming a payload over the request-direction
  // cap (but under the frame cap, so decode_frame_header accepts it)
  // must be answered with kErrorResponse without the server ever
  // allocating or reading the claimed bytes.
  const int fd = connect_raw(socket_path);
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> header =
      encode_frame(MessageType::kRunRequest, {});
  const std::uint64_t huge = kMaxRequestPayloadBytes + 1;
  std::memcpy(header.data() + 8, &huge, sizeof(huge));
  ASSERT_EQ(::send(fd, header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));
  std::uint8_t response[kFrameHeaderBytes];
  std::size_t got = 0;
  while (got < sizeof(response)) {
    const ssize_t n = ::recv(fd, response + got, sizeof(response) - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(decode_frame_header(response).type, MessageType::kErrorResponse);
  ::close(fd);

  DecompClient client = served.connect();  // the server is still alive
  EXPECT_EQ(client.info().num_vertices, 16u);
}

TEST(Server, ShutdownIsNotBlockedByAStalledMidFrameConnection) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(4, 4));
  ServedSnapshot served(dir, path, 1);
  const std::string socket_path = served.server->config().socket_path;

  // Occupy the single worker with a connection stuck halfway through a
  // frame header and never finishing it.
  const int stalled = connect_raw(socket_path);
  ASSERT_GE(stalled, 0);
  const std::uint8_t half[8] = {'M', 'P', 'X', 'Q', 1, 0, 2, 0};
  ASSERT_EQ(::send(stalled, half, sizeof(half), 0),
            static_cast<ssize_t>(sizeof(half)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // stop() must drain the stalled worker promptly (the mid-frame read
  // re-checks the stop flag every poll interval), not hang forever.
  served.server->stop();
  EXPECT_FALSE(served.server->running());
  ::close(stalled);
}

TEST(Server, ConcurrentClientsGetConsistentAnswers) {
  mpx::testing::TempDir dir("mpx_server");
  const CsrGraph g = generators::grid2d(15, 15);
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, g);
  ServedSnapshot served(dir, path, 8);
  const DecompositionRequest req = request(0.3);
  const DecompositionResult& expected = served.session.run(req);

  constexpr int kClients = 8;
  constexpr int kIters = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      DecompClient client = served.connect();
      const vertex_t n = g.num_vertices();
      for (int i = 0; i < kIters; ++i) {
        const auto v = static_cast<vertex_t>((c * 7919 + i * 104729) % n);
        if (client.cluster_of(v, req) != expected.cluster_of(v)) ++mismatches;
        if (client.owner_of(v, req) != expected.owner[v]) ++mismatches;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const StatsResponse stats = served.server->stats();
  EXPECT_GE(stats.connections, static_cast<std::uint64_t>(kClients));
  EXPECT_GE(stats.query_requests,
            static_cast<std::uint64_t>(2 * kClients * kIters));
}

TEST(Server, WarmStartServesTheCachedDecomposition) {
  mpx::testing::TempDir dir("mpx_server");
  const CsrGraph g = generators::grid2d(10, 10);
  const std::string snapshot_path = dir.file("grid.mpxs");
  io::save_snapshot(snapshot_path, g);
  const DecompositionRequest req = request(0.3, 9);
  const std::string warm_path = dir.file("warm.dec");
  DecompositionResult expected;
  {
    DecompositionSession warm_session((CsrGraph(g)));
    expected = warm_session.run(req);  // copy: the session dies below
    warm_session.save_cached(req, warm_path);
  }

  ServedSnapshot served(dir, snapshot_path, 2, {{req, warm_path}});
  DecompClient client = served.connect();
  const RunResponse run = client.run(req, /*include_arrays=*/true);
  EXPECT_TRUE(run.from_cache);  // the very first request hits the cache
  EXPECT_EQ(run.owner, expected.owner);
  EXPECT_EQ(run.settle, expected.settle);
}

TEST(Server, CacheBoundEvictsButRestoresWarmEntries) {
  mpx::testing::TempDir dir("mpx_server");
  const CsrGraph g = generators::grid2d(6, 6);
  const std::string snapshot_path = dir.file("grid.mpxs");
  io::save_snapshot(snapshot_path, g);
  const DecompositionRequest warm_req = request(0.3, 9);
  const std::string warm_path = dir.file("warm.dec");
  {
    DecompositionSession warm_session((CsrGraph(g)));
    (void)warm_session.run(warm_req);
    warm_session.save_cached(warm_req, warm_path);
  }

  ServerConfig config;
  config.snapshot_path = snapshot_path;
  config.socket_path = dir.file("bounded.sock");
  config.workers = 1;
  config.warm.push_back({warm_req, warm_path});
  config.max_cached_results = 2;  // warm entry + one request
  DecompServer server(std::move(config));
  server.start();
  {
    DecompClient client =
        DecompClient::connect_unix(server.config().socket_path);
    // Distinct seeds are distinct cache keys: each run grows the cache,
    // and crossing the bound clears it (then restores the warm entry).
    EXPECT_FALSE(client.run(request(0.3, 101)).from_cache);
    EXPECT_FALSE(client.run(request(0.3, 102)).from_cache);  // evicts here
    // The warm entry survived the eviction (restored from its file)...
    EXPECT_TRUE(client.run(warm_req).from_cache);
    // ...while an ordinary entry was dropped and recomputes cold.
    EXPECT_FALSE(client.run(request(0.3, 101)).from_cache);
  }
  server.stop();
}

TEST(Server, WarmStartRejectsMissingFiles) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string snapshot_path = dir.file("grid.mpxs");
  io::save_snapshot(snapshot_path, generators::grid2d(4, 4));
  ServerConfig config;
  config.snapshot_path = snapshot_path;
  config.socket_path = dir.file("warm.sock");
  config.warm.push_back({request(0.3), dir.file("missing.dec")});
  DecompServer server(std::move(config));
  EXPECT_THROW(server.start(), std::runtime_error);
}

TEST(Server, ShutdownRequestDrainsTheServer) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(5, 5));
  ServedSnapshot served(dir, path, 2);
  {
    DecompClient client = served.connect();
    (void)client.run(request(0.4));
    client.shutdown_server();  // acknowledged before the server drains
  }
  EXPECT_TRUE(served.server->stop_requested());
  served.server->wait();
  // The socket is released: connecting again fails cleanly.
  EXPECT_THROW((void)served.connect(), std::runtime_error);
  const StatsResponse stats = served.server->stats();
  EXPECT_GE(stats.requests, 2u);
  EXPECT_GE(stats.run_requests, 1u);
}

// --- observability ---------------------------------------------------------

TEST(Server, StatsRequestReportsPerTypeHistogramsAcrossWorkers) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(8, 8));
  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServedSnapshot served(dir, path, workers);
    DecompClient client = served.connect();
    // A deterministic traffic mix: the per-type counters and histogram
    // counts below must agree with it regardless of the worker count.
    (void)client.info();
    (void)client.info();
    (void)client.run(request(0.4));         // cold
    (void)client.run(request(0.4));         // cached
    (void)client.run(request(0.4));         // cached
    (void)client.cluster_of(0, request(0.4));
    (void)client.cluster_of(1, request(0.4));
    (void)client.boundary_arcs(request(0.4));
    (void)client.batch(request(0.4), std::vector<double>{0.5, 0.2});

    const StatsResponse stats = client.server_stats();
    EXPECT_EQ(stats.info_requests, 2u);
    EXPECT_EQ(stats.run_requests, 3u);
    EXPECT_EQ(stats.query_requests, 2u);
    EXPECT_EQ(stats.boundary_requests, 1u);
    EXPECT_EQ(stats.batch_requests, 1u);
    EXPECT_EQ(stats.stats_requests, 1u);
    // The total bumps after each handler returns, so the in-flight stats
    // request is not yet included: 2+3+2+1+1 completed requests.
    EXPECT_EQ(stats.requests, 9u);
    EXPECT_EQ(stats.connections, 1u);
    EXPECT_GE(stats.results_computed, 1u);
    EXPECT_GE(stats.store_resident_results, 1u);
    EXPECT_GE(stats.store_computes, 1u);

    // Each service histogram's count equals the requests of its type; the
    // snapshot is taken inside the stats handler, so the in-flight stats
    // request is not yet recorded in server.service.stats.
    const auto count_of = [&](const char* name) {
      const obs::HistogramSnapshot* h = stats.metrics.histogram(name);
      return h == nullptr ? ~0ull : h->count;
    };
    EXPECT_EQ(count_of("server.service.info"), 2u);
    EXPECT_EQ(count_of("server.service.run"), 3u);
    EXPECT_EQ(count_of("server.service.query"), 2u);
    EXPECT_EQ(count_of("server.service.boundary"), 1u);
    EXPECT_EQ(count_of("server.service.batch"), 1u);
    EXPECT_EQ(count_of("server.service.stats"), 0u);
    // Quantiles are ordered and bounded by the exact max.
    const obs::HistogramSnapshot* run_h =
        stats.metrics.histogram("server.service.run");
    ASSERT_NE(run_h, nullptr);
    EXPECT_LE(run_h->quantile(0.5), run_h->quantile(0.99));
    EXPECT_EQ(run_h->quantile(1.0), run_h->max);
    // The session bridge feeds decomp.*: exactly the cold computes.
    EXPECT_EQ(stats.metrics.counter_or("decomp.computes"),
              stats.store_computes);
    const obs::HistogramSnapshot* total_h =
        stats.metrics.histogram("decomp.total");
    ASSERT_NE(total_h, nullptr);
    EXPECT_EQ(total_h->count, stats.store_computes);
    // A second stats request sees the first one's service record.
    EXPECT_EQ(client.server_stats().metrics.histogram("server.service.stats")
                  ->count,
              1u);
  }
}

TEST(Server, ServerStatsMatchesTheServerSideSnapshot) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(6, 6));
  ServedSnapshot served(dir, path, 2);
  {
    DecompClient client = served.connect();
    (void)client.run(request(0.3));
    (void)client.cluster_of(3, request(0.3));
    const StatsResponse wire = client.server_stats();
    const obs::MetricsSnapshot local = served.server->metrics_snapshot();
    // The wire snapshot is a prefix in time of the server-side one: same
    // instruments, counts only grow, counters only grow.
    for (const obs::NamedHistogram& h : wire.metrics.histograms) {
      const obs::HistogramSnapshot* mine = local.histogram(h.name);
      ASSERT_NE(mine, nullptr) << h.name;
      EXPECT_GE(mine->count, h.histogram.count) << h.name;
    }
    for (const obs::CounterSnapshot& c : wire.metrics.counters) {
      EXPECT_GE(local.counter_or(c.name, 0), c.value) << c.name;
    }
    EXPECT_EQ(wire.metrics.gauge_or("store.resident_results", -1),
              local.gauge_or("store.resident_results", -2));
  }
}

TEST(Server, TraceFileCapturesServedRequests) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string snapshot_path = dir.file("grid.mpxs");
  io::save_snapshot(snapshot_path, generators::grid2d(8, 8));
  const std::string trace_path = dir.file("trace.json");
  ServerConfig config;
  config.snapshot_path = snapshot_path;
  config.socket_path = dir.file("traced.sock");
  config.workers = 2;
  config.trace_path = trace_path;
  DecompServer server(std::move(config));
  server.start();
  {
    DecompClient client =
        DecompClient::connect_unix(server.config().socket_path);
    (void)client.run(request(0.4));  // cold: decompose spans
    (void)client.run(request(0.4));  // cached
    (void)client.boundary_arcs(request(0.4));
  }
  server.stop();  // stop() drains and writes the trace file

  std::ifstream in(trace_path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << trace_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();
  // Chrome trace-event JSON: one object, an event array, our span names.
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front(), '{');
  EXPECT_EQ(trace.back(), '\n');
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"service.run\""), std::string::npos);
  EXPECT_NE(trace.find("\"service.boundary\""), std::string::npos);
  EXPECT_NE(trace.find("\"response_write\""), std::string::npos);
  EXPECT_NE(trace.find("\"decompose.shift\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '{'),
            std::count(trace.begin(), trace.end(), '}'));
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '['),
            std::count(trace.begin(), trace.end(), ']'));
}

TEST(Server, StartRejectsUnavailableSocketPathsWithClearErrors) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string snapshot_path = dir.file("grid.mpxs");
  io::save_snapshot(snapshot_path, generators::grid2d(3, 3));

  // Path in a directory that does not exist.
  {
    ServerConfig config;
    config.snapshot_path = snapshot_path;
    config.socket_path = dir.file("no-such-dir") + "/server.sock";
    DecompServer server(std::move(config));
    try {
      server.start();
      FAIL() << "expected runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("no-such-dir"), std::string::npos)
          << e.what();  // the message names the path
    }
  }
  // Path already bound by a live server.
  {
    ServerConfig config;
    config.snapshot_path = snapshot_path;
    config.socket_path = dir.file("taken.sock");
    DecompServer first{ServerConfig(config)};
    first.start();
    DecompServer second(std::move(config));
    try {
      second.start();
      FAIL() << "expected runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("taken.sock"), std::string::npos)
          << e.what();
    }
    first.stop();
  }
  // Bad config is invalid_argument, not a crash.
  {
    DecompServer server(ServerConfig{});
    EXPECT_THROW(server.start(), std::invalid_argument);
  }
}

TEST(Server, StartReclaimsStaleSocketFiles) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string snapshot_path = dir.file("grid.mpxs");
  io::save_snapshot(snapshot_path, generators::grid2d(4, 4));
  const std::string socket_path = dir.file("stale.sock");

  // A crashed server leaves its socket file behind (close without
  // unlink). A restart on the same path must reclaim it.
  {
    sockaddr_un addr{};
    ASSERT_TRUE(detail::fill_unix_address(socket_path, addr));
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ::close(fd);  // the file persists; nothing listens on it
  }
  ServerConfig config;
  config.snapshot_path = snapshot_path;
  config.socket_path = socket_path;
  DecompServer server(std::move(config));
  server.start();  // would fail EADDRINUSE without stale reclaim
  {
    DecompClient client = DecompClient::connect_unix(socket_path);
    EXPECT_EQ(client.info().num_vertices, 16u);
  }
  server.stop();
}

TEST(Server, TcpLoopbackTransportWorks) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(8, 8));
  ServerConfig config;
  config.snapshot_path = path;
  config.tcp_port = 0;  // ephemeral
  config.workers = 2;
  DecompServer server(std::move(config));
  server.start();
  ASSERT_NE(server.port(), 0);
  {
    DecompClient client = DecompClient::connect_tcp("127.0.0.1",
                                                    server.port());
    EXPECT_EQ(client.info().num_vertices, 64u);
    const DecompositionRequest req = request(0.3);
    DecompositionSession session = DecompositionSession::open_snapshot(path);
    EXPECT_EQ(client.run(req, true).owner, session.run(req).owner);
  }
  server.stop();
}

// --- per-request dispatch regression suite ---------------------------------
// Everything below pins the never-pinned design: idle connections must
// not hold workers, pipelined streams interleave fairly, fd exhaustion
// backs off instead of spinning, dead readers are dropped, and the
// result store is fleet-wide.

TEST(Server, IdleConnectionsBeyondWorkerCountDoNotStarveService) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(10, 10));
  constexpr int kWorkers = 2;
  ServedSnapshot served(dir, path, kWorkers);
  const std::string socket_path = served.server->config().socket_path;

  // workers + 1 connections that connect and then send nothing. Under
  // the old pinned design each one parked a worker in recv() forever, so
  // this many idle peers stopped all service.
  std::vector<int> idle;
  for (int i = 0; i < kWorkers + 1; ++i) {
    const int fd = connect_raw(socket_path);
    ASSERT_GE(fd, 0);
    idle.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const DecompositionRequest req = request(0.4);
  auto answered = std::async(std::launch::async, [&] {
    DecompClient client = served.connect();
    return client.run(req, /*include_arrays=*/true);
  });
  ASSERT_EQ(answered.wait_for(std::chrono::seconds(20)),
            std::future_status::ready)
      << "an active client starved behind " << idle.size()
      << " idle connections";
  EXPECT_EQ(answered.get().owner, served.session.run(req).owner);
  for (const int fd : idle) ::close(fd);
}

TEST(Server, CachedQueriesAreServedWhileAnotherConnectionComputes) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(1000, 1000));
  ServedSnapshot served(dir, path, /*workers=*/2);
  const DecompositionRequest cached = request(0.4, 1);
  const DecompositionRequest cold = request(0.02, 2);

  DecompClient querier = served.connect();
  (void)querier.run(cached);  // now resident in the shared store
  const StatsResponse before = served.server->stats();

  // A second connection starts a cold decomposition of the 1M-vertex
  // grid (well over 100 ms); it occupies one of the two workers.
  auto cold_run = std::async(std::launch::async, [&] {
    DecompClient computer = served.connect();
    return computer.run(cold);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (served.server->stats().run_requests == before.run_requests &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(served.server->stats().run_requests, before.run_requests);

  // The other worker must answer the cached query while the cold run is
  // still computing (the store counts a compute once it publishes).
  const cluster_t answer = querier.cluster_of(7, cached);
  EXPECT_EQ(served.server->stats().results_computed, before.results_computed)
      << "a cached query waited behind another connection's cold run";
  EXPECT_FALSE(cold_run.get().from_cache);
  EXPECT_EQ(answer, served.session.cluster_of(7, cached));
}

TEST(Server, InterleavedPipelinedClientsAllProgressOnOneWorker) {
  mpx::testing::TempDir dir("mpx_server");
  const CsrGraph g = generators::grid2d(12, 12);
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, g);
  ServedSnapshot served(dir, path, /*workers=*/1);
  const DecompositionRequest req = request(0.3);
  const DecompositionResult& expected = served.session.run(req);

  // Each client streams bursts longer than the server's per-turn frame
  // cap, so one worker must round-robin the connections rather than
  // draining any one of them to completion. Every client finishing with
  // correct in-order answers is the fairness property.
  constexpr int kClients = 4;
  constexpr int kBursts = 5;
  constexpr std::size_t kBurst = 48;  // > the server's frames-per-turn cap
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      DecompClient client = served.connect();
      const vertex_t n = g.num_vertices();
      std::vector<vertex_t> vertices(kBurst);
      for (int b = 0; b < kBursts; ++b) {
        for (std::size_t i = 0; i < kBurst; ++i) {
          vertices[i] =
              static_cast<vertex_t>((c * 7919 + b * 613 + i * 104729) % n);
        }
        const std::vector<cluster_t> clusters =
            client.cluster_of_pipelined(vertices, req);
        for (std::size_t i = 0; i < kBurst; ++i) {
          if (clusters[i] != expected.cluster_of(vertices[i])) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Server, PipelinedResponsesMatchSessionAcrossWorkers) {
  mpx::testing::TempDir dir("mpx_server");
  const CsrGraph g = generators::grid2d(20, 20);
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, g);
  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ServedSnapshot served(dir, path, workers);
    DecompClient client = served.connect();

    // A pipelined run burst, including a duplicate that must come back
    // from the shared store, answers byte-identically to the session.
    const std::vector<DecompositionRequest> reqs = {
        request(0.4, 7), request(0.3, 7), request(0.5, 9), request(0.4, 7)};
    const std::vector<RunResponse> responses =
        client.run_pipelined(reqs, /*include_arrays=*/true);
    ASSERT_EQ(responses.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      const DecompositionResult& expected = served.session.run(reqs[i]);
      EXPECT_EQ(responses[i].num_clusters, expected.num_clusters());
      EXPECT_EQ(responses[i].rounds, expected.telemetry.rounds);
      ASSERT_TRUE(responses[i].has_arrays);
      EXPECT_EQ(responses[i].owner, expected.owner);
      EXPECT_EQ(responses[i].settle, expected.settle);
    }
    EXPECT_TRUE(responses.back().from_cache);  // the duplicate request

    // A pipelined point-query sweep over every vertex stays in order.
    std::vector<vertex_t> vertices(g.num_vertices());
    for (vertex_t v = 0; v < g.num_vertices(); ++v) vertices[v] = v;
    const std::vector<cluster_t> clusters =
        client.cluster_of_pipelined(vertices, reqs[0]);
    const DecompositionResult& expected = served.session.run(reqs[0]);
    ASSERT_EQ(clusters.size(), vertices.size());
    for (vertex_t v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(clusters[v], expected.cluster_of(v)) << "vertex " << v;
    }
  }
}

TEST(Server, ColdIdenticalRequestsComputeOnceFleetWide) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(40, 40));
  ServedSnapshot served(dir, path, /*workers=*/8);
  const DecompositionRequest req = request(0.25, 11);

  // Eight connections race the same cold request. The store is
  // single-flight, so exactly one response is cold and the server runs
  // exactly one decomposition — from_cache is fleet-wide, not
  // per-worker.
  constexpr int kClients = 8;
  std::atomic<int> cold_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      DecompClient client = served.connect();
      if (!client.run(req).from_cache) ++cold_count;
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(cold_count.load(), 1);
  EXPECT_EQ(served.server->stats().results_computed, 1u);

  // A brand-new connection is warm too.
  DecompClient late = served.connect();
  EXPECT_TRUE(late.run(req).from_cache);
}

TEST(Server, AcceptBacksOffUnderFdExhaustionAndRecovers) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(4, 4));
  ServedSnapshot served(dir, path, /*workers=*/1);
  const std::string socket_path = served.server->config().socket_path;

  // Shrink the process fd table to exactly one free slot: enough for a
  // client socket(), nothing for the server's accept(). connect() still
  // completes against the listener backlog without an accept.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int next_free = ::dup(0);
  ASSERT_GE(next_free, 0);
  ::close(next_free);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(next_free) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  const int fd = connect_raw(socket_path);
  if (fd < 0) {
    ::setrlimit(RLIMIT_NOFILE, &saved);
    FAIL() << "client connect failed under the tight fd limit";
  }

  // The polling worker must register the fd exhaustion as a backoff (the
  // old accept loop hot-spun on the permanently-ready listener here).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (served.server->stats().accept_backoffs == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::uint64_t backoffs = served.server->stats().accept_backoffs;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_GE(backoffs, 1u);

  // Once fds are available again, the backlogged connection is accepted
  // and served on its original socket — nothing was dropped.
  EXPECT_EQ(raw_info_round_trip(fd).num_vertices, 16u);
  ::close(fd);
  DecompClient client = served.connect();  // and new connections work
  EXPECT_EQ(client.info().num_vertices, 16u);
}

TEST(Server, DropsConnectionsThatStopDrainingResponses) {
  mpx::testing::TempDir dir("mpx_server");
  const std::string path = dir.file("grid.mpxs");
  io::save_snapshot(path, generators::grid2d(100, 100));
  ServerConfig config;
  config.snapshot_path = path;
  config.socket_path = dir.file("timeout.sock");
  config.workers = 2;
  config.write_timeout = 0.3;  // seconds; ~200 ms poll granularity
  DecompServer server(std::move(config));
  server.start();

  // A client that requests full arrays repeatedly and never reads a
  // byte: the responses (~80 KB each) overflow the kernel socket buffer
  // into the server's outbox, the outbox stops draining, and the write
  // timeout must drop the connection instead of holding its memory
  // forever. (A worker was never blocked on it either way — a parked
  // connection only costs a poll slot — so the timeout is purely a
  // resource bound.)
  const int dead = connect_raw(server.config().socket_path);
  ASSERT_GE(dead, 0);
  RunRequest msg;
  msg.request = request(0.3);
  msg.include_arrays = true;
  const std::vector<std::uint8_t> frame =
      encode_message(MessageType::kRunRequest, msg);
  for (int i = 0; i < 16; ++i) {
    // Later sends may fail once the server drops us; that is the point.
    if (::send(dead, frame.data(), frame.size(), MSG_NOSIGNAL) < 0) break;
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().write_timeouts == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(server.stats().write_timeouts, 1u);
  ::close(dead);

  // The server sheds the dead reader and keeps serving everyone else.
  DecompClient client = DecompClient::connect_unix(server.config().socket_path);
  EXPECT_EQ(client.info().num_vertices, 10000u);
  server.stop();
}

#else  // !MPX_TEST_HAVE_SOCKETS

TEST(Server, SkippedWithoutSocketSupport) {
  GTEST_SKIP() << "socket transports are unavailable on this platform";
}

#endif  // MPX_TEST_HAVE_SOCKETS

}  // namespace
}  // namespace mpx::server
