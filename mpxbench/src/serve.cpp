// serve-query and serve-churn: a DecompServer (2 workers) on a Unix
// socket over an rmat snapshot (~2^17 vertices), with one warm key.
//
//  * serve-query: one client thread drives an open-loop stream of cached
//    point queries (80% cluster_of, 10% owner_of, 10% estimate_distance)
//    over two pipelined connections at a fixed nominal rate, then measures
//    capacity with a bounded window of queries in flight.
//  * serve-churn: a closed loop on one connection sends `run` requests
//    with the owner/settle arrays (and every 16th request a
//    boundary_arcs) for Zipf-distributed keys from a key space four times
//    the server's result-store bound.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/session.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "graph/subgraph.hpp"
#include "loadgen.hpp"
#include "parallel/thread_env.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "workloads.hpp"

namespace mpxbench {

namespace {

using mpx::server::DecompClient;
using mpx::server::QueryKind;

/// rmat(17, 8) without its isolated vertices: ~77k vertices, ~1M edges.
/// An isolated vertex is a cluster of its own, and every stored result
/// carries a distance oracle quadratic in the cluster count.
constexpr unsigned kRmatScale = 17;
constexpr double kRmatEdgeFactor = 8.0;
constexpr std::uint64_t kRmatSeed = 1;
constexpr int kWorkers = 2;
constexpr int kQueryConnections = 2;
/// Latency limit of `query_over_limit_frac` and of the capacity window.
constexpr double kLimitS = 1e-3;
/// The fixed open-loop rate of serve-query's latency phase: about half of
/// the capacity measured on a 4-core x86 host.
constexpr double kNominalRate = 40000.0;
/// Queries kept outstanding per connection while measuring capacity:
/// 2 x 16 in flight at ~100k/s is ~0.3 ms of queueing, within kLimitS.
constexpr std::size_t kWindow = 16;
/// Share of serve-query's seconds spent at the nominal rate; the capacity
/// phase gets the rest.
constexpr double kNominalShare = 0.6;
/// serve-churn: result-store bound, key space and Zipf exponent.
constexpr std::size_t kChurnCap = 64;
constexpr std::size_t kChurnKeys = 4 * kChurnCap;
/// Under the store's clear-all eviction this exponent gives a hit ratio
/// of about 0.68 (1.0 would sit at 0.5, where the median flips between
/// the hit and the miss mode).
constexpr double kZipfExponent = 1.2;
constexpr std::uint64_t kBoundaryEvery = 16;

/// Everything both serve workloads build before timing.
struct ServeInputs {
  std::string snapshot;
  std::string warm_file;
  std::string socket;
  mpx::DecompositionRequest warm_req;
  mpx::CsrGraph graph;  ///< the in-process reference graph (mapped)
};

ServeInputs make_inputs(const RunOptions& opt) {
  ServeInputs in;
  in.snapshot = opt.work_dir + "/rmat_hot.mpxs";
  in.warm_file = opt.work_dir + "/warm.dec";
  in.socket = opt.work_dir + "/mpx.sock";
  in.warm_req = mpx_request(request_seed(opt.seed, ~0ull));
  {
    const mpx::CsrGraph g =
        mpx::generators::rmat(kRmatScale, kRmatEdgeFactor, kRmatSeed);
    std::vector<mpx::vertex_t> linked;
    for (mpx::vertex_t v = 0; v < g.num_vertices(); ++v) {
      if (g.degree(v) > 0) linked.push_back(v);
    }
    mpx::io::save_snapshot(in.snapshot, mpx::induced_subgraph(g, linked).graph,
                           mpx::io::SnapshotWriteOptions{});
  }
  in.graph = mpx::io::map_snapshot(in.snapshot);
  mpx::DecompositionSession session(in.graph);
  session.save_cached(in.warm_req, in.warm_file);
  return in;
}

mpx::server::ServerConfig server_config(const ServeInputs& in) {
  mpx::server::ServerConfig cfg;
  cfg.snapshot_path = in.snapshot;
  cfg.socket_path = in.socket;
  cfg.workers = kWorkers;
  cfg.warm = {{in.warm_req, in.warm_file}};
  cfg.max_cached_results = kChurnCap;
  return cfg;
}

/// `after - before` of a cumulative histogram (both from one server).
mpx::obs::HistogramSnapshot hist_delta(const mpx::obs::MetricsSnapshot& before,
                                       const mpx::obs::MetricsSnapshot& after,
                                       const std::string& name) {
  mpx::obs::HistogramSnapshot d;
  const mpx::obs::HistogramSnapshot* a = after.histogram(name);
  if (a == nullptr) return d;
  const mpx::obs::HistogramSnapshot* b = before.histogram(name);
  std::map<std::uint16_t, std::uint64_t> prior;
  if (b != nullptr) {
    for (const auto& bucket : b->buckets) prior[bucket.index] = bucket.count;
  }
  for (const auto& bucket : a->buckets) {
    const std::uint64_t c = bucket.count - prior[bucket.index];
    if (c > 0) d.buckets.push_back({bucket.index, c});
    d.count += c;
  }
  d.sum = a->sum - (b != nullptr ? b->sum : 0);
  d.max = a->max;
  return d;
}

double p_us(const mpx::obs::HistogramSnapshot& h, double q) {
  return h.count == 0 ? 0.0 : static_cast<double>(h.quantile(q)) / 1e3;
}

/// p99 when the sample count supports it, else the maximum.
double p99_or_max(const Samples& s) {
  return s.percentile(0.99).value_or(s.max());
}

/// The server, its setup timings, and the connections the run drives.
struct Stack {
  std::unique_ptr<mpx::server::DecompServer> server;
  std::vector<int> query_fds;
  std::optional<DecompClient> client;   ///< serve-churn's connection
  std::optional<DecompClient> control;  ///< stats and idle round trips

  ~Stack() { close_fds(); }
  void close_fds() {
    for (const int fd : query_fds) ::close(fd);
    query_fds.clear();
  }
  void reconnect(const std::string& socket) {
    close_fds();
    for (int k = 0; k < kQueryConnections; ++k) {
      query_fds.push_back(connect_unix_fd(socket));
    }
  }
};

/// Zipf(kZipfExponent) over kChurnKeys keys, by inverse CDF.
class Zipf {
 public:
  Zipf() {
    double total = 0.0;
    for (std::size_t k = 0; k < kChurnKeys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  [[nodiscard]] std::size_t sample(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), kChurnKeys - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// In-process result-store timings (the core/session layer from outside).
void measure_store(const ServeInputs& in, const RunOptions& opt,
                   SpanRecorder& rec, LayerValues& layers) {
  mpx::SharedResultStore store(in.graph);
  (void)store.acquire(in.warm_req);
  Samples hit_us;
  for (int i = 0; i < 2000; ++i) {
    const double t = now_s();
    const auto a = store.acquire(in.warm_req);
    hit_us.add(since(t) * 1e6);
    if (!a.from_cache) throw std::runtime_error("mpxbench: resident key missed");
  }
  Samples compute_ms, materialize_ms;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const mpx::DecompositionRequest fresh =
        mpx_request(request_seed(opt.seed ^ 0x5eedull, i));
    {
      const ScopedSpan span(rec, "store.acquire", i);
      const double t = now_s();
      (void)store.acquire(fresh);
      compute_ms.add(since(t) * 1e3);
    }
    mpx::DecompositionResult r = mpx::decompose(in.graph, fresh);
    const ScopedSpan span(rec, "store.materialize", i);
    const double t = now_s();
    const mpx::MaterializedDecomposition m(in.graph, std::move(r));
    materialize_ms.add(since(t) * 1e3);
  }
  layers["store.hit_us"] = hit_us.median();
  layers["store.compute_ms"] = compute_ms.median();
  layers["store.materialize_ms"] = materialize_ms.median();
  Samples open_s;
  for (int i = 0; i < 3; ++i) {
    const ScopedSpan span(rec, "graph.open");
    const double t = now_s();
    const mpx::CsrGraph g = mpx::io::map_snapshot(in.snapshot);
    open_s.add(since(t));
  }
  layers["graph.open_s"] = open_s.median();
}

/// Server-side layer numbers over the timed phase, from the stats deltas.
void server_layers(const mpx::server::StatsResponse& before,
                   const mpx::server::StatsResponse& after,
                   mpx::edge_t arcs, double client_p50_us, bool churn,
                   LayerValues& layers) {
  const auto& b = before.metrics;
  const auto& a = after.metrics;
  const auto queue = hist_delta(b, a, "server.queue_wait");
  const auto svc_query = hist_delta(b, a, "server.service.query");
  const auto svc_run = hist_delta(b, a, "server.service.run");
  const auto write = hist_delta(b, a, "server.response_write");
  layers["server.queue_wait_p50_us"] = p_us(queue, 0.5);
  layers["server.queue_wait_p99_us"] = p_us(queue, 0.99);
  layers["server.service_query_p50_us"] = p_us(svc_query, 0.5);
  layers["server.service_run_p50_us"] = p_us(svc_run, 0.5);
  layers["server.response_write_p50_us"] = p_us(write, 0.5);
  layers["server.response_write_p99_us"] = p_us(write, 0.99);
  const double service = churn ? p_us(svc_run, 0.5) : p_us(svc_query, 0.5);
  const double residual = client_p50_us - p_us(queue, 0.5) - service -
                          p_us(write, 0.5);
  layers["server.wire_residual_us"] = residual;
  layers["server.wire_residual_share"] = residual / client_p50_us;

  const std::uint64_t computes = after.store_computes - before.store_computes;
  const std::uint64_t requests = (after.run_requests - before.run_requests) +
                                 (after.query_requests - before.query_requests) +
                                 (after.boundary_requests -
                                  before.boundary_requests);
  layers["store.computes"] = static_cast<double>(computes);
  layers["store.hit_ratio"] =
      requests == 0 ? 0.0
                    : 1.0 - static_cast<double>(computes) /
                                static_cast<double>(requests);

  // Cold computes inside the server report their phases to its registry.
  const auto draw = hist_delta(b, a, "decomp.shift_draw");
  if (draw.count == 0) return;
  const double s = 1e-9;
  const auto rank = hist_delta(b, a, "decomp.shift_rank");
  const auto search = hist_delta(b, a, "decomp.search");
  const auto assemble = hist_delta(b, a, "decomp.assemble");
  const auto total = hist_delta(b, a, "decomp.total");
  const double n = static_cast<double>(draw.count);
  layers["shifts.draw_s"] = static_cast<double>(draw.quantile(0.5)) * s;
  layers["shifts.rank_s"] = static_cast<double>(rank.quantile(0.5)) * s;
  layers["bfs.search_s"] = static_cast<double>(search.quantile(0.5)) * s;
  layers["decomposer.assemble_s"] =
      static_cast<double>(assemble.quantile(0.5)) * s;
  // Mean residual per compute, from the histogram sums.
  const double residual_s =
      (total.mean() - draw.mean() - rank.mean() - search.mean() -
       assemble.mean()) * s;
  layers["decomposer.residual_s"] = residual_s;
  layers["decomposer.residual_share"] = residual_s / (total.mean() * s);
  layers["bfs.rounds"] =
      static_cast<double>(a.counter_or("decomp.rounds") -
                          b.counter_or("decomp.rounds")) / n;
  layers["bfs.arcs_per_arc"] =
      static_cast<double>(a.counter_or("decomp.arcs_scanned") -
                          b.counter_or("decomp.arcs_scanned")) /
      n / static_cast<double>(arcs);
}

}  // namespace

Outcome run_serve(const RunOptions& opt, bool churn, SpanRecorder& rec) {
  const ServeInputs in = make_inputs(opt);
  const mpx::vertex_t n = in.graph.num_vertices();
  const mpx::edge_t m = in.graph.num_edges();

  // The in-process answers every served answer is checked against.
  mpx::SharedResultStore reference(in.graph);
  const std::shared_ptr<const mpx::MaterializedDecomposition> warm =
      reference.acquire(in.warm_req).entry;

  // --- set-up: start the server (maps the snapshot, restores the warm
  // key) and connect, kSetupWarmups + kSetupReps times; the last stack
  // serves the run ---
  Samples setup_s;
  Stack stack;
  for (int rep = 0; rep < kSetupWarmups + kSetupReps; ++rep) {
    if (stack.server) {
      stack.close_fds();
      stack.client.reset();
      stack.control.reset();
      stack.server->stop();
      stack.server.reset();
    }
    const ScopedSpan span(rec, "setup");
    const double t = now_s();
    {
      const ScopedSpan start(rec, "server.start");
      stack.server =
          std::make_unique<mpx::server::DecompServer>(server_config(in));
      stack.server->start();
    }
    const ScopedSpan connect(rec, "client.connect");
    stack.control.emplace(DecompClient::connect_unix(in.socket));
    if (churn) {
      stack.client.emplace(DecompClient::connect_unix(in.socket));
    } else {
      stack.reconnect(in.socket);
    }
    if (stack.control->cluster_of(0, in.warm_req) != warm->cluster_of(0)) {
      throw std::runtime_error("mpxbench: warm key answers differently");
    }
    if (rep >= kSetupWarmups) setup_s.add(since(t));
  }

  Outcome out;
  Tally& tally = out.tally;
  LayerValues layers;
  EndToEnd e;
  e.setup_s = setup_s.median();
  out.report.push_back({"setup_s", e.setup_s, "s", setup_s.count()});

  // Idle single-connection round trip (traced runs only).
  if (opt.trace) {
    Samples rtt_us;
    for (int i = 0; i < 2000; ++i) {
      const auto v = static_cast<mpx::vertex_t>(i) % n;
      const double t = now_s();
      const mpx::cluster_t c = stack.control->cluster_of(v, in.warm_req);
      rtt_us.add(since(t) * 1e6);
      tally.check(c == warm->cluster_of(v), "idle cluster_of differs");
    }
    layers["client.rtt_idle_us"] = rtt_us.median();
  }

  // Server-side layer numbers cover the phase the client latency came
  // from: serve-query's nominal-rate phase, serve-churn's whole loop.
  const mpx::server::StatsResponse stats_before = stack.control->server_stats();
  mpx::server::StatsResponse stats_after;
  double client_p50_us = 0.0;
  double cut_fraction = 0.0;

  if (!churn) {
    // --- serve-query ---
    const std::uint64_t qseed = mpx::splitmix64(opt.seed ^ 0x9e3779b9ull);
    const auto next = [&](std::uint64_t i) {
      const std::uint64_t h = mpx::hash_stream(qseed, i);
      PointQuery q;
      q.u = static_cast<mpx::vertex_t>((h >> 8) % n);
      q.v = static_cast<mpx::vertex_t>((h >> 36) % n);
      const std::uint64_t mix = h % 10;
      if (mix < 8) {
        q.kind = QueryKind::kClusterOf;
        q.expected = warm->cluster_of(q.u);
      } else if (mix == 8) {
        q.kind = QueryKind::kOwnerOf;
        q.expected = warm->owner_of(q.u);
      } else {
        q.kind = QueryKind::kDistance;
        q.expected = warm->estimate_distance(q.u, q.v);
      }
      return q;
    };
    const auto settle = [&](const OpenLoopResult& r) {
      for (std::uint64_t k = 0; k < r.answered; ++k) tally.ok();
      if (r.failed() > 0) {
        for (std::uint64_t k = 0; k < r.failed(); ++k) {
          tally.fail("point query: " + std::to_string(r.wrong) + " wrong, " +
                     std::to_string(r.errors) + " errors, " +
                     std::to_string(r.missing) + " missing");
        }
      }
    };

    reset_peak_rss();
    const double nominal_s = kNominalShare * opt.seconds;
    // A traced run splits the nominal phase into an untraced and a traced
    // half; the gap between their medians is the tracing overhead.
    OpenLoopResult fixed = run_open_loop(
        stack.query_fds, in.warm_req, kNominalRate,
        opt.trace ? nominal_s / 2 : nominal_s, kLimitS, 1.0, next);
    settle(fixed);
    if (opt.trace) {
      const ScopedSpan span(rec, "client.open_loop");
      OpenLoopResult traced = run_open_loop(
          stack.query_fds, in.warm_req, kNominalRate, nominal_s / 2, kLimitS,
          1.0, next, &rec);
      settle(traced);
      layers["obs.trace_overhead_pct"] =
          (traced.latency_s.median() / fixed.latency_s.median() - 1.0) * 100.0;
    }
    stats_after = stack.control->server_stats();

    // Capacity: the server saturated through a bounded window, sized so
    // that the window's own queueing stays below the latency limit.
    OpenLoopResult saturated;
    double max_rate = 0.0;
    {
      const ScopedSpan span(rec, "client.window");
      const double t = now_s();
      saturated = run_window(stack.query_fds, in.warm_req, kWindow,
                             (1.0 - kNominalShare) * opt.seconds, 1.0, next);
      max_rate = static_cast<double>(saturated.answered) / since(t);
      settle(saturated);
    }
    e.peak_rss_mb = peak_rss_mib();

    e.latency_p50_ms = fixed.latency_s.median() * 1e3;
    e.throughput_per_s = max_rate;
    client_p50_us = fixed.latency_s.median() * 1e6;
    out.report.push_back({"query_nominal_rate", kNominalRate, "queries/s", 0});
    report_latency(out.report, "query", "us", fixed.latency_s, 1e6);
    out.report.push_back({"query_max_rate", max_rate, "queries/s", 0});
    report_latency(out.report, "query_window", "us", saturated.latency_s, 1e6);
    out.report.push_back(
        {"query_over_limit_frac",
         static_cast<double>(fixed.over_limit) /
             static_cast<double>(std::max<std::uint64_t>(fixed.sent, 1)),
         "ratio", 0});
    const double lag_p99 = p99_or_max(fixed.send_lag_s) * 1e6;
    out.report.push_back({"send_lag_p99_us", lag_p99, "us",
                          fixed.send_lag_s.count()});
    layers["client.send_lag_p99_us"] = lag_p99;

    // The served cut set is the user-visible quality number.
    const std::vector<mpx::Edge> boundary =
        stack.control->boundary_arcs(in.warm_req);
    const auto expected = warm->boundary_arcs();
    tally.check(std::equal(boundary.begin(), boundary.end(), expected.begin(),
                           expected.end(),
                           [](const mpx::Edge& x, const mpx::Edge& y) {
                             return x.u == y.u && x.v == y.v;
                           }),
                "served boundary_arcs differs from the in-process store");
    cut_fraction =
        static_cast<double>(boundary.size()) / static_cast<double>(m);
  } else {
    // --- serve-churn ---
    struct Op {
      std::size_t key = 0;
      bool boundary = false;
      std::uint64_t print = 0;
    };
    const Zipf zipf;
    // The seed picks which decomposition each key requests; the Zipf key
    // trace itself is the same on every seed, so the store's hit/miss
    // pattern (and with it runs/s) does not move with the seed.
    const std::uint64_t key_base = mpx::splitmix64(opt.seed ^ 0xc4u);
    constexpr std::uint64_t draw_seed = 0xd7u;
    const auto key_req = [&](std::size_t key) {
      return mpx_request(request_seed(key_base, key));
    };
    std::vector<Op> ops;
    Samples run_s, untraced_run_s, traced_run_s;
    std::uint64_t from_cache = 0;
    reset_peak_rss();
    const double t0 = now_s();
    for (std::uint64_t i = 0; since(t0) < opt.seconds || run_s.count() < 20;
         ++i) {
      Op op;
      op.key = zipf.sample(mpx::uniform_double(mpx::hash_stream(draw_seed, i)));
      op.boundary = i % kBoundaryEvery == kBoundaryEvery - 1;
      const mpx::DecompositionRequest req = key_req(op.key);
      const bool traced = rec.enabled() && i % 2 == 0;
      SpanRecorder off(false);
      SpanRecorder& r = traced ? rec : off;
      if (op.boundary) {
        const ScopedSpan span(r, "client.boundary_arcs", i);
        const std::vector<mpx::Edge> edges = stack.client->boundary_arcs(req);
        op.print = fingerprint(std::span<const std::uint32_t>(
            reinterpret_cast<const std::uint32_t*>(edges.data()),
            edges.size() * 2));
      } else {
        const double t = now_s();
        mpx::server::RunResponse resp;
        {
          const ScopedSpan span(r, "client.run", i);
          resp = stack.client->run(req, /*include_arrays=*/true);
        }
        const double dt = since(t);
        run_s.add(dt);
        (traced ? traced_run_s : untraced_run_s).add(dt);
        from_cache += resp.from_cache ? 1 : 0;
        op.print = fingerprint_result(resp.owner, resp.settle);
      }
      ops.push_back(op);
    }
    const double wall = since(t0);
    e.peak_rss_mb = peak_rss_mib();
    stats_after = stack.control->server_stats();

    // Every served answer must equal the in-process decomposition of its
    // key (computed once per distinct key, after the timed phase, with
    // the whole machine).
    std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>> expect;
    Samples cut, pull_rounds;
    {
      const mpx::ScopedNumThreads all(
          static_cast<int>(std::thread::hardware_concurrency()));
      for (const Op& op : ops) {
        if (expect.count(op.key) != 0) continue;
        const ScopedSpan span(rec, "check.in_process", op.key);
        const mpx::DecompositionResult r =
            mpx::decompose(in.graph, key_req(op.key));
        const std::vector<mpx::Edge> edges =
            mpx::compute_boundary_edges(in.graph, r);
        expect[op.key] = {
            fingerprint_result(r.owner, r.settle),
            fingerprint(std::span<const std::uint32_t>(
                reinterpret_cast<const std::uint32_t*>(edges.data()),
                edges.size() * 2))};
        cut.add(static_cast<double>(edges.size()) / static_cast<double>(m));
        pull_rounds.add(r.telemetry.pull_rounds);
      }
    }
    for (const Op& op : ops) {
      const auto& [run_print, boundary_print] = expect[op.key];
      tally.check(op.print == (op.boundary ? boundary_print : run_print),
                  std::string(op.boundary ? "boundary_arcs" : "run") +
                      " differs from the in-process result, key " +
                      std::to_string(op.key));
    }

    const double runs = static_cast<double>(run_s.count());
    e.latency_p50_ms = run_s.median() * 1e3;
    e.throughput_per_s = runs / wall;
    cut_fraction = cut.mean();
    client_p50_us = run_s.median() * 1e6;
    report_latency(out.report, "run", "ms", run_s, 1e3);
    out.report.push_back({"runs_per_s", e.throughput_per_s, "runs/s", 0});
    out.report.push_back(
        {"run_hit_ratio", static_cast<double>(from_cache) / runs, "ratio", 0});
    out.report.push_back({"distinct_keys", static_cast<double>(expect.size()),
                          "count", 0});
    layers["bfs.pull_rounds"] = pull_rounds.median();
    if (opt.trace) {
      layers["obs.trace_overhead_pct"] =
          (traced_run_s.median() / untraced_run_s.median() - 1.0) * 100.0;
    }
  }

  out.report.push_back({"cut_fraction", cut_fraction, "ratio", 0});
  out.report.push_back({"peak_rss_mb", e.peak_rss_mb, "MiB", 0});
  out.report.push_back({"failed_frac", tally.failed_frac(), "ratio", 0});
  out.report.push_back(
      {"store_computes",
       static_cast<double>(stats_after.store_computes -
                           stats_before.store_computes),
       "count", 0});

  stack.close_fds();
  stack.client.reset();
  stack.control.reset();
  stack.server->stop();

  if (!opt.trace) {
    emit_end_to_end(out, e);
    return out;
  }
  server_layers(stats_before, stats_after, in.graph.num_arcs(), client_p50_us,
                churn, layers);
  measure_store(in, opt, rec, layers);
  emit_layers(out, layers);
  out.report.push_back({"server.wire_residual_share",
                        layers["server.wire_residual_share"], "ratio", 0});
  if (layers.count("decomposer.residual_share") != 0) {
    out.report.push_back({"decomposer.residual_share",
                          layers["decomposer.residual_share"], "ratio", 0});
  }
  return out;
}

}  // namespace mpxbench
