#include "loadgen.hpp"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace mpxbench {

namespace {

using mpx::server::MessageType;

struct Pending {
  std::uint64_t id = 0;
  double due_s = 0.0;
  std::uint64_t expected = 0;
  bool timed = true;  ///< its latency is kept as a sample
};

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::vector<std::uint8_t> in;
  std::size_t in_pos = 0;
  std::deque<Pending> pending;
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error(std::string("mpxbench: fcntl: ") +
                             std::strerror(errno));
  }
}

/// Write whatever the socket accepts now.
void flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      throw std::runtime_error(std::string("mpxbench: send: ") +
                               std::strerror(errno));
    }
  }
  c.out.clear();
  c.out_pos = 0;
}

/// Read what is available and settle every complete reply frame.
void drain(Conn& c, OpenLoopResult& r, double limit_s, SpanRecorder* rec) {
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      if (static_cast<std::size_t>(n) < sizeof buf) break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      throw std::runtime_error("mpxbench: server closed a query connection");
    }
  }
  const double now = now_s();
  while (c.in.size() - c.in_pos >= mpx::server::kFrameHeaderBytes) {
    const std::span<const std::uint8_t> rest(c.in.data() + c.in_pos,
                                             c.in.size() - c.in_pos);
    const mpx::server::FrameHeader h = mpx::server::decode_frame_header(
        rest.first(mpx::server::kFrameHeaderBytes));
    const std::size_t frame = mpx::server::kFrameHeaderBytes + h.payload_bytes;
    if (rest.size() < frame) break;
    if (c.pending.empty()) {
      throw std::runtime_error("mpxbench: reply without a request");
    }
    const Pending p = c.pending.front();
    c.pending.pop_front();
    const double latency = now - p.due_s;
    if (p.timed) r.latency_s.add(latency);
    if (latency > limit_s) ++r.over_limit;
    if (rec != nullptr) rec->add("client.query", 0, p.id, p.due_s, now);
    const auto payload = rest.subspan(mpx::server::kFrameHeaderBytes,
                                      h.payload_bytes);
    if (h.type == MessageType::kQueryResponse) {
      if (mpx::server::decode_query_response(payload).value == p.expected) {
        ++r.answered;
      } else {
        ++r.wrong;
      }
    } else {
      ++r.errors;
    }
    c.in_pos += frame;
  }
  if (c.in_pos == c.in.size()) {
    c.in.clear();
    c.in_pos = 0;
  }
}

}  // namespace

int connect_unix_fd(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("mpxbench: socket: ") +
                             std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    throw std::runtime_error("mpxbench: socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("mpxbench: connect " + path + ": " +
                             std::strerror(err));
  }
  return fd;
}

OpenLoopResult run_open_loop(
    std::span<const int> fds, const mpx::DecompositionRequest& request,
    double rate, double seconds, double limit_s, double drain_s,
    const std::function<PointQuery(std::uint64_t)>& next,
    SpanRecorder* rec) {
  // Wake-ups from ppoll land within ~1 us instead of the default 50 us.
  (void)::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  std::vector<Conn> conns(fds.size());
  std::vector<pollfd> pfds(fds.size());
  for (std::size_t k = 0; k < fds.size(); ++k) {
    conns[k].fd = fds[k];
    set_nonblocking(fds[k]);
  }
  OpenLoopResult r;
  const auto total = static_cast<std::uint64_t>(std::llround(rate * seconds));
  std::vector<std::uint8_t> frame;
  const double start = now_s() + 1e-3;
  std::uint64_t i = 0;
  std::size_t outstanding = 0;
  for (;;) {
    double now = now_s();
    while (i < total && start + static_cast<double>(i) / rate <= now) {
      const double due = start + static_cast<double>(i) / rate;
      const PointQuery q = next(i);
      Conn& c = conns[i % conns.size()];
      mpx::server::encode_query_request_frame_into(frame, request, q.kind,
                                                   q.u, q.v);
      c.out.insert(c.out.end(), frame.begin(), frame.end());
      c.pending.push_back({i, due, q.expected, true});
      ++outstanding;
      r.send_lag_s.add(now - due);
      ++i;
      ++r.sent;
      now = now_s();
    }
    for (Conn& c : conns) flush(c);
    if (i == total && outstanding == 0) break;
    if (i == total && now > start + seconds + drain_s) break;

    for (std::size_t k = 0; k < conns.size(); ++k) {
      pfds[k] = {conns[k].fd,
                 static_cast<short>(POLLIN | (conns[k].out.empty() ? 0 : POLLOUT)),
                 0};
    }
    const double wait =
        i < total ? start + static_cast<double>(i) / rate - now_s() : 1e-3;
    // Spin across short gaps; sleep in ppoll across longer ones.
    const double sleep = wait > 100e-6 ? wait - 50e-6 : 0.0;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(sleep);
    ts.tv_nsec = static_cast<long>((sleep - static_cast<double>(ts.tv_sec)) * 1e9);
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("mpxbench: ppoll: ") +
                               std::strerror(errno));
    }
    if (ready <= 0) continue;
    for (std::size_t k = 0; k < conns.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        const std::size_t before = conns[k].pending.size();
        drain(conns[k], r, limit_s, rec);
        outstanding -= before - conns[k].pending.size();
      }
    }
  }
  for (const Conn& c : conns) r.missing += c.pending.size();
  return r;
}

OpenLoopResult run_window(
    std::span<const int> fds, const mpx::DecompositionRequest& request,
    std::size_t window, double seconds, double drain_s,
    const std::function<PointQuery(std::uint64_t)>& next) {
  std::vector<Conn> conns(fds.size());
  std::vector<pollfd> pfds(fds.size());
  for (std::size_t k = 0; k < fds.size(); ++k) {
    conns[k].fd = fds[k];
    set_nonblocking(fds[k]);
  }
  OpenLoopResult r;
  std::vector<std::uint8_t> frame;
  const double end = now_s() + seconds;
  std::uint64_t i = 0;
  for (;;) {
    const double now = now_s();
    const bool sending = now < end;
    std::size_t outstanding = 0;
    for (Conn& c : conns) {
      while (sending && c.pending.size() < window) {
        const PointQuery q = next(i);
        mpx::server::encode_query_request_frame_into(frame, request, q.kind,
                                                     q.u, q.v);
        c.out.insert(c.out.end(), frame.begin(), frame.end());
        // Keep every 16th latency: enough for p99, and the sample store
        // stays small beside the peak RSS it would otherwise inflate.
        c.pending.push_back({i, now, q.expected, i % 16 == 0});
        ++i;
        ++r.sent;
      }
      flush(c);
      outstanding += c.pending.size();
    }
    if (!sending && (outstanding == 0 || now > end + drain_s)) break;
    for (std::size_t k = 0; k < conns.size(); ++k) {
      pfds[k] = {conns[k].fd,
                 static_cast<short>(POLLIN | (conns[k].out.empty() ? 0 : POLLOUT)),
                 0};
    }
    const int ready = ::poll(pfds.data(), pfds.size(), 1);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("mpxbench: poll: ") +
                               std::strerror(errno));
    }
    for (std::size_t k = 0; ready > 0 && k < conns.size(); ++k) {
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        drain(conns[k], r, 1e9, nullptr);
      }
    }
  }
  for (const Conn& c : conns) r.missing += c.pending.size();
  return r;
}

}  // namespace mpxbench
