// Self-test of the benchmark's own machinery:
//  1. a percentile is emitted only when the sample count supports it;
//  2. planted wrong expectations are counted as failures, not ignored
//     (open-loop answers, result fingerprints, the structural verifier);
//  3. a server stall shows up in the latency of every request scheduled
//     behind it (the open-loop generator does not coordinate with the
//     server it measures).
//
//   python3 mpxbench/run.py --selftest
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common.hpp"
#include "core/decomposer.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "loadgen.hpp"

namespace {

using namespace mpxbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

Samples iota(std::size_t n) {
  Samples s;
  for (std::size_t i = 1; i <= n; ++i) s.add(static_cast<double>(i));
  return s;
}

void test_percentile_support() {
  check(!iota(50).percentile(0.9).has_value(),
        "p90 of 50 samples is not emitted (5 beyond its rank)");
  check(iota(100).percentile(0.9) == 90.0,
        "p90 of 100 samples is emitted (10 beyond its rank)");
  check(!iota(999).percentile(0.99).has_value(),
        "p99 of 999 samples is not emitted (9 beyond its rank)");
  check(iota(1000).percentile(0.99) == 990.0,
        "p99 of 1000 samples is emitted");
  check(iota(7).median() == 4.0 && iota(8).median() == 4.5,
        "median of odd and even counts");
  std::vector<Metric> out;
  report_latency(out, "op", "s", iota(200), 1.0);
  check(out.size() == 2 && out[1].name == "op_p90_s",
        "200 samples report p50 and p90 but no p99");
  out.clear();
  report_latency(out, "op", "s", iota(20), 1.0);
  check(out.size() == 1, "20 samples report only the median");
}

/// Answers every query frame on `fd` with value = u; stalls once for
/// `stall_s` when the clock first passes `stall_at`.
void fake_server(int fd, double stall_at, double stall_s,
                 std::atomic<double>& stall_begin,
                 std::atomic<double>& stall_end) {
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> reply;
  std::uint8_t buf[4096];
  bool stalled = false;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return;
    in.insert(in.end(), buf, buf + n);
    std::size_t pos = 0;
    while (in.size() - pos >= mpx::server::kFrameHeaderBytes) {
      const auto h = mpx::server::decode_frame_header(
          std::span<const std::uint8_t>(in.data() + pos,
                                        mpx::server::kFrameHeaderBytes));
      const std::size_t frame =
          mpx::server::kFrameHeaderBytes + h.payload_bytes;
      if (in.size() - pos < frame) break;
      if (!stalled && now_s() >= stall_at) {
        stalled = true;
        stall_begin = now_s();
        std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
        stall_end = now_s();
      }
      const auto q = mpx::server::decode_query_request(
          std::span<const std::uint8_t>(
              in.data() + pos + mpx::server::kFrameHeaderBytes,
              h.payload_bytes));
      mpx::server::encode_query_response_frame_into(
          reply, mpx::server::QueryResponse{q.u});
      if (::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(reply.size())) {
        return;
      }
      pos += frame;
    }
    in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(pos));
  }
}

struct FakeRun {
  OpenLoopResult result;
  SpanRecorder spans{true};
  double stall_begin = 0.0;
  double stall_end = 0.0;
};

/// Drive the generator against the fake server at `rate` for `seconds`;
/// query i expects u (right) unless `planted(i)`.
template <typename Planted>
void run_fake(FakeRun& run, double rate, double seconds, double stall_after,
              double stall_s, Planted planted) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    check(false, "socketpair");
    return;
  }
  std::atomic<double> begin{0.0}, end{0.0};
  std::thread server(fake_server, sv[1], now_s() + stall_after, stall_s,
                     std::ref(begin), std::ref(end));
  const int fds[] = {sv[0]};
  run.result = run_open_loop(
      fds, mpx::DecompositionRequest{}, rate, seconds, 1e-3, 1.0,
      [&](std::uint64_t i) {
        PointQuery q;
        q.u = static_cast<mpx::vertex_t>(i % 1000);
        q.expected = planted(i) ? q.u + 1 : q.u;
        return q;
      },
      &run.spans);
  ::shutdown(sv[0], SHUT_RDWR);
  server.join();
  ::close(sv[0]);
  ::close(sv[1]);
  run.stall_begin = begin;
  run.stall_end = end;
}

void test_planted_failures() {
  FakeRun run;
  run_fake(run, 2000.0, 0.2, 10.0, 0.0,
           [](std::uint64_t i) { return i % 7 == 0; });
  const std::uint64_t planted = (run.result.sent + 6) / 7;
  check(run.result.wrong == planted,
        "every planted wrong answer is counted (" +
            std::to_string(run.result.wrong) + " of " +
            std::to_string(planted) + ")");
  check(run.result.answered + run.result.wrong == run.result.sent,
        "every other answer is counted right");
  Tally t;
  for (std::uint64_t k = 0; k < run.result.failed(); ++k) t.fail("planted");
  check(t.failed() == planted && t.failed_frac() > 0.0,
        "the tally carries them into failed_frac");

  std::vector<std::uint32_t> owner = {0, 0, 2, 2};
  std::vector<std::uint32_t> settle = {0, 1, 0, 1};
  const std::uint64_t print = fingerprint_result(owner, settle);
  settle[3] = 2;
  check(fingerprint_result(owner, settle) != print,
        "a one-word change in settle changes the fingerprint");

  const mpx::CsrGraph g = mpx::generators::grid2d(20, 20);
  mpx::DecompositionWorkspace ws;
  const mpx::DecompositionResult r =
      mpx::decompose(g, mpx::DecompositionRequest{}, &ws);
  check(mpx::verify_decomposition(r.decomposition, g, ws.shifts).ok,
        "an honest decomposition passes the verifier");
  std::vector<std::uint32_t> bad_owner(r.owner.begin(), r.owner.end());
  std::vector<std::uint32_t> bad_settle(r.settle.begin(), r.settle.end());
  // Plant a wrong distance on a non-center vertex.
  for (std::size_t v = 0; v < bad_owner.size(); ++v) {
    if (bad_owner[v] != v) {
      bad_settle[v] += 1;
      break;
    }
  }
  const mpx::Decomposition bad(bad_owner, bad_settle);
  Tally vt;
  const mpx::VerifyResult v = mpx::verify_decomposition(bad, g, ws.shifts);
  vt.check(v.ok, "verify: " + v.message);
  check(vt.failed() == 1, "a planted wrong distance fails the verifier");
}

void test_stall_visible() {
  constexpr double kRate = 2000.0;
  constexpr double kStall = 0.05;
  FakeRun run;
  run_fake(run, kRate, 0.4, 0.15, kStall, [](std::uint64_t) { return false; });
  check(run.result.failed() == 0 && run.result.answered == run.result.sent,
        "stall run: every query answered");
  check(run.stall_end > run.stall_begin, "the fake server stalled");
  // Every request due while the server stalled waited at least until the
  // stall ended, however the generator's own sends were paced.
  std::size_t behind = 0;
  std::size_t short_changed = 0;
  for (const Span& s : run.spans.spans()) {
    if (s.start_s < run.stall_begin || s.start_s >= run.stall_end - 1e-3) {
      continue;
    }
    ++behind;
    if (s.end_s - s.start_s < 0.9 * (run.stall_end - s.start_s)) {
      ++short_changed;
    }
  }
  check(behind >= static_cast<std::size_t>(0.8 * kStall * kRate),
        "requests were scheduled during the stall (" + std::to_string(behind) +
            ")");
  check(short_changed == 0,
        "each of them carries the stall in its latency (" +
            std::to_string(short_changed) + " do not)");
  const std::optional<double> p95 = run.result.latency_s.percentile(0.95);
  check(p95.has_value() && *p95 > 0.02,
        "the stall lifts the latency tail, not one sample");
}

}  // namespace

int main() {
  test_percentile_support();
  test_planted_failures();
  test_stall_visible();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
