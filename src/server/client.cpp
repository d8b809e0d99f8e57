#include "server/client.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define MPX_SERVER_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "server/socket_util.hpp"
#endif

namespace mpx::server {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("mpx::client: " + what);
}

#if MPX_SERVER_HAVE_SOCKETS
[[noreturn]] void fail_errno(const std::string& where) {
  fail(where + ": " + std::strerror(errno));
}
#endif

}  // namespace

struct DecompClient::Impl {
  int fd = -1;
  /// Read-side buffer: one large recv typically captures a whole small
  /// response (header + payload) instead of two syscalls, and captures
  /// many back-to-back responses of a pipelined burst at once.
  std::vector<std::uint8_t> rdbuf;
  std::size_t rdpos = 0;  ///< consumed prefix of rdbuf
  std::size_t rdlen = 0;  ///< valid bytes in rdbuf

  /// Blocking buffered read; throws on EOF/transport failure.
  void take_or_fail(std::uint8_t* into, std::size_t want);
  /// read_response into a reusable buffer (cleared, capacity kept).
  void read_response_into(std::vector<std::uint8_t>& payload,
                          MessageType expect);

  /// Hot-path scratch: point queries rebuild their request frame and
  /// response payload in place, so the steady state allocates nothing.
  std::vector<std::uint8_t> query_frame;
  std::vector<std::uint8_t> query_payload;

  ~Impl() {
#if MPX_SERVER_HAVE_SOCKETS
    if (fd >= 0) ::close(fd);
#endif
  }
};

DecompClient::DecompClient(int fd) : impl_(std::make_unique<Impl>()) {
  impl_->fd = fd;
}

DecompClient::DecompClient(DecompClient&&) noexcept = default;
DecompClient& DecompClient::operator=(DecompClient&&) noexcept = default;
DecompClient::~DecompClient() = default;

#if MPX_SERVER_HAVE_SOCKETS

DecompClient DecompClient::connect_unix(const std::string& socket_path) {
  sockaddr_un addr{};
  if (!detail::fill_unix_address(socket_path, addr)) {
    fail(socket_path + ": socket path longer than sun_path");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail_errno(socket_path);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno(socket_path);
  }
  detail::disable_sigpipe(fd);
  return DecompClient(fd);
}

DecompClient DecompClient::connect_tcp(const std::string& host,
                                       std::uint16_t port) {
  const std::string where = host + ":" + std::to_string(port);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    fail(where + ": not an IPv4 address");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail_errno(where);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_errno(where);
  }
  detail::disable_sigpipe(fd);
  detail::disable_nagle(fd);
  return DecompClient(fd);
}

namespace {

void write_all_or_fail(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        detail::send_some(fd, bytes.data() + sent, bytes.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void read_exact_or_fail(int fd, std::uint8_t* into, std::size_t bytes) {
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::recv(fd, into + got, bytes - got, 0);
    if (n == 0) fail("server closed the connection mid-response");
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("recv");
    }
    got += static_cast<std::size_t>(n);
  }
}

constexpr std::size_t kReadBufferBytes = 1u << 16;

}  // namespace

/// Drain the buffer, then refill with large recvs. Wants bigger than
/// the buffer (array payloads) read straight into the destination once
/// the buffer is empty.
void DecompClient::Impl::take_or_fail(std::uint8_t* into, std::size_t want) {
  const std::size_t buffered = rdlen - rdpos;
  const std::size_t from_buffer = std::min(want, buffered);
  if (from_buffer != 0) {  // an unread buffer's data() may be null
    std::memcpy(into, rdbuf.data() + rdpos, from_buffer);
  }
  rdpos += from_buffer;
  into += from_buffer;
  want -= from_buffer;
  if (want == 0) return;
  rdpos = rdlen = 0;  // buffer fully drained
  if (rdbuf.empty()) rdbuf.resize(kReadBufferBytes);
  if (want >= rdbuf.size()) {
    read_exact_or_fail(fd, into, want);
    return;
  }
  while (want > 0) {
    const ssize_t n = ::recv(fd, rdbuf.data(), rdbuf.size(), 0);
    if (n == 0) fail("server closed the connection mid-response");
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("recv");
    }
    rdlen = static_cast<std::size_t>(n);
    const std::size_t use = std::min(want, rdlen);
    std::memcpy(into, rdbuf.data(), use);
    rdpos = use;
    into += use;
    want -= use;
  }
}

void DecompClient::send_frames(std::span<const std::uint8_t> bytes) {
  if (impl_ == nullptr || impl_->fd < 0) {
    fail("client is not connected (moved-from?)");
  }
  write_all_or_fail(impl_->fd, bytes);
}

std::vector<std::uint8_t> DecompClient::round_trip(
    std::span<const std::uint8_t> frame, MessageType expect) {
  send_frames(frame);
  return read_response(expect);
}

std::vector<std::uint8_t> DecompClient::read_response(MessageType expect) {
  std::vector<std::uint8_t> payload;
  impl_->read_response_into(payload, expect);
  return payload;
}

void DecompClient::Impl::read_response_into(
    std::vector<std::uint8_t>& payload, MessageType expect) {
  std::uint8_t header_bytes[kFrameHeaderBytes];
  take_or_fail(header_bytes, sizeof(header_bytes));
  const FrameHeader header = decode_frame_header(header_bytes);
  // Grow the buffer as bytes actually arrive (1 MiB steps) instead of
  // trusting the length prefix with one up-front allocation: a corrupt
  // or hostile peer claiming a payload near kMaxFramePayloadBytes then
  // costs nothing unless it really streams those bytes.
  constexpr std::size_t kChunkBytes = 1u << 20;
  payload.clear();
  payload.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(header.payload_bytes, kChunkBytes)));
  std::uint64_t remaining = header.payload_bytes;
  while (remaining > 0) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(remaining, kChunkBytes));
    const std::size_t old_size = payload.size();
    payload.resize(old_size + chunk);
    take_or_fail(payload.data() + old_size, chunk);
    remaining -= chunk;
  }
  if (header.type == MessageType::kErrorResponse) {
    const ErrorResponse err = decode_error_response(payload);
    throw ServerError(err.code, err.message);
  }
  if (header.type != expect) {
    throw ProtocolError("unexpected response type " +
                        std::to_string(static_cast<int>(header.type)) +
                        " (expected " +
                        std::to_string(static_cast<int>(expect)) + ")");
  }
}

#else  // !MPX_SERVER_HAVE_SOCKETS

DecompClient DecompClient::connect_unix(const std::string&) {
  fail("socket transports are unavailable on this platform");
}
DecompClient DecompClient::connect_tcp(const std::string&, std::uint16_t) {
  fail("socket transports are unavailable on this platform");
}
std::vector<std::uint8_t> DecompClient::round_trip(
    std::span<const std::uint8_t>, MessageType) {
  fail("socket transports are unavailable on this platform");
}
void DecompClient::send_frames(std::span<const std::uint8_t>) {
  fail("socket transports are unavailable on this platform");
}
std::vector<std::uint8_t> DecompClient::read_response(MessageType) {
  fail("socket transports are unavailable on this platform");
}
void DecompClient::Impl::read_response_into(std::vector<std::uint8_t>&,
                                            MessageType) {
  fail("socket transports are unavailable on this platform");
}

#endif  // MPX_SERVER_HAVE_SOCKETS

InfoResponse DecompClient::info() {
  const auto payload =
      round_trip(encode_message(MessageType::kInfoRequest, InfoRequest{}),
                 MessageType::kInfoResponse);
  return decode_info_response(payload);
}

StatsResponse DecompClient::server_stats() {
  const auto payload =
      round_trip(encode_message(MessageType::kStatsRequest, StatsRequest{}),
                 MessageType::kStatsResponse);
  return decode_stats_response(payload);
}

RunResponse DecompClient::run(const DecompositionRequest& request,
                              bool include_arrays) {
  RunRequest msg;
  msg.request = request;
  msg.include_arrays = include_arrays;
  const auto payload = round_trip(
      encode_message(MessageType::kRunRequest, msg), MessageType::kRunResponse);
  return decode_run_response(payload);
}

std::vector<RunResponse> DecompClient::run_pipelined(
    std::span<const DecompositionRequest> requests, bool include_arrays) {
  std::vector<std::uint8_t> frames;
  for (const DecompositionRequest& request : requests) {
    RunRequest msg;
    msg.request = request;
    msg.include_arrays = include_arrays;
    const auto frame = encode_message(MessageType::kRunRequest, msg);
    frames.insert(frames.end(), frame.begin(), frame.end());
  }
  send_frames(frames);
  std::vector<RunResponse> responses;
  responses.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    responses.push_back(
        decode_run_response(read_response(MessageType::kRunResponse)));
  }
  return responses;
}

std::uint64_t DecompClient::query_round_trip(
    const DecompositionRequest& request, QueryKind kind, vertex_t u,
    vertex_t v) {
  if (impl_ == nullptr || impl_->fd < 0) {
    fail("client is not connected (moved-from?)");
  }
  // Point queries are the hot path: frame and payload buffers live on
  // the connection and are rebuilt in place, allocation-free once warm,
  // straight from the caller's request (no QueryRequest materialized).
  encode_query_request_frame_into(impl_->query_frame, request, kind, u, v);
  send_frames(impl_->query_frame);
  impl_->read_response_into(impl_->query_payload, MessageType::kQueryResponse);
  return decode_query_response(impl_->query_payload).value;
}

cluster_t DecompClient::cluster_of(vertex_t v,
                                   const DecompositionRequest& request) {
  return static_cast<cluster_t>(
      query_round_trip(request, QueryKind::kClusterOf, v, 0));
}

vertex_t DecompClient::owner_of(vertex_t v,
                                const DecompositionRequest& request) {
  return static_cast<vertex_t>(
      query_round_trip(request, QueryKind::kOwnerOf, v, 0));
}

std::uint32_t DecompClient::estimate_distance(
    vertex_t u, vertex_t v, const DecompositionRequest& request) {
  return static_cast<std::uint32_t>(
      query_round_trip(request, QueryKind::kDistance, u, v));
}

std::vector<cluster_t> DecompClient::cluster_of_pipelined(
    std::span<const vertex_t> vertices, const DecompositionRequest& request) {
  if (impl_ == nullptr || impl_->fd < 0) {
    fail("client is not connected (moved-from?)");
  }
  std::vector<std::uint8_t> frames;
  for (const vertex_t v : vertices) {
    encode_query_request_frame_into(impl_->query_frame, request,
                                    QueryKind::kClusterOf, v, 0);
    frames.insert(frames.end(), impl_->query_frame.begin(),
                  impl_->query_frame.end());
  }
  send_frames(frames);
  std::vector<cluster_t> clusters;
  clusters.reserve(vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    impl_->read_response_into(impl_->query_payload,
                              MessageType::kQueryResponse);
    clusters.push_back(static_cast<cluster_t>(
        decode_query_response(impl_->query_payload).value));
  }
  return clusters;
}

std::vector<Edge> DecompClient::boundary_arcs(
    const DecompositionRequest& request) {
  BoundaryRequest msg;
  msg.request = request;
  const auto payload =
      round_trip(encode_message(MessageType::kBoundaryRequest, msg),
                 MessageType::kBoundaryResponse);
  return decode_boundary_response(payload).edges;
}

BatchResponse DecompClient::batch(const DecompositionRequest& base,
                                  std::span<const double> betas) {
  BatchRequest msg;
  msg.base = base;
  msg.betas.assign(betas.begin(), betas.end());
  const auto payload =
      round_trip(encode_message(MessageType::kBatchRequest, msg),
                 MessageType::kBatchResponse);
  return decode_batch_response(payload);
}

void DecompClient::shutdown_server() {
  (void)round_trip(
      encode_message(MessageType::kShutdownRequest, ShutdownRequest{}),
      MessageType::kShutdownResponse);
}

}  // namespace mpx::server
