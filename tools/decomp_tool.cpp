// decomp_tool — run, batch, and query graph decompositions through the
// unified decomposer facade (core/decomposer.hpp) and DecompositionSession
// (core/session.hpp). The operational companion of the serving layer: what
// a service would answer over RPC, this tool answers on the command line,
// and CI drives it over the golden snapshots under ASan/UBSan.
//
// usage:
//   decomp_tool run <graph> [opts] [--out <file.dec>] [--rounds]
//       one decomposition; prints quality + telemetry. --out saves the
//       result with its telemetry block (decomposition_io format).
//       --rounds also prints the search's per-round log (mpx only): one
//       row per round with its direction, frontier and settled counts,
//       arcs, and the seconds of its expand and settle passes.
//   decomp_tool batch <graph> --betas b1,b2,... [opts]
//       multi-beta batch through one session: shifts are generated once
//       per seed and derived per beta. Prints one table row per beta.
//   decomp_tool query <graph> [opts] [--load <file.dec>] <queries...>
//       answer queries from a (possibly reloaded) decomposition:
//         --cluster-of V   cluster/center/distance of vertex V (repeatable)
//         --distance U V   distance-oracle estimate between U and V
//         --boundary       boundary (cut) edge count and sample
//   decomp_tool algorithms
//       list the algorithm registry.
//   decomp_tool serve <graph.mpxs> --socket <path> [--port P]
//               [--workers N] [--warm <file.dec>] [opts]
//               [--stats-interval SECS] [--trace <file.json>]
//       stand up the decomposition server (src/server/) on a Unix-domain
//       socket (--socket) or loopback TCP port (--port): one worker
//       session per thread over the shared mmap-ed snapshot. --warm
//       restores a save_cached file (under the request described by
//       [opts]) into every worker before serving. --stats-interval dumps
//       the live metrics snapshot to stderr every SECS seconds; --trace
//       records per-request spans and writes Chrome trace-event JSON on
//       shutdown (docs/OBSERVABILITY.md). Runs until SIGINT / SIGTERM or
//       a client --shutdown.
//   decomp_tool connect --socket <path> | --port P [--host H] [opts]
//               [--run] [--cluster-of V]... [--distance U V] [--boundary]
//               [--betas b1,b2,...] [--info] [--stats] [--shutdown]
//       drive a running server through the client library: the same
//       queries `query` answers in process, over the wire protocol
//       (docs/PROTOCOL.md). --stats fetches the server's observability
//       snapshot (counters + latency-histogram quantiles).
//
// common opts: --algo <name> (default mpx), --beta B (default 0.1),
//              --seed S (default 0), --engine auto|push|pull
//
// <graph> is any format io::detect_graph_format understands; `.mpxs`
// snapshots are mmap-ed zero-copy (session startup is O(header)).
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/decomposer.hpp"
#include "core/session.hpp"
#include "graph/io.hpp"
#include "graph/snapshot_blocks.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "storage/paged_graph.hpp"
#include "support/timer.hpp"

namespace {

using mpx::DecompositionRequest;
using mpx::DecompositionResult;
using mpx::DecompositionSession;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  decomp_tool run <graph> [opts] [--out <file.dec>] [--rounds]\n"
      "  decomp_tool batch <graph> --betas b1,b2,... [opts]\n"
      "  decomp_tool query <graph> [opts] [--load <file.dec>]\n"
      "              [--cluster-of V]... [--distance U V] [--boundary]\n"
      "  decomp_tool serve <graph.mpxs> --socket <path> [--port P]\n"
      "              [--workers N] [--warm <file.dec>] [opts]\n"
      "              [--stats-interval SECS] [--trace <file.json>]\n"
      "  decomp_tool connect --socket <path> | --port P [--host H] [opts]\n"
      "              [--run] [--cluster-of V]... [--distance U V]\n"
      "              [--boundary] [--betas b1,b2,...] [--info] [--stats]\n"
      "              [--shutdown]\n"
      "  decomp_tool algorithms\n"
      "opts: --algo <name> --beta B --seed S --engine auto|push|pull\n"
      "      --memory-budget BYTES[K|M|G]  serve cold snapshots larger than\n"
      "      the budget out-of-core (paged block cache; run/batch/query/serve)\n");
  return 2;
}

struct Cli {
  std::string graph_path;
  DecompositionRequest request;
  std::vector<double> betas;                // batch / connect
  std::string out_path;                     // run --out
  bool rounds = false;                      // run --rounds
  std::string load_path;                    // query --load
  std::vector<mpx::vertex_t> cluster_of;    // query / connect
  bool boundary = false;                    // query / connect
  bool has_distance = false;                // query / connect
  mpx::vertex_t distance_u = 0;
  mpx::vertex_t distance_v = 0;
  std::string socket_path;                  // serve / connect
  std::string host = "127.0.0.1";           // connect
  int port = -1;                            // serve / connect
  int workers = 1;                          // serve
  std::string warm_path;                    // serve --warm
  bool do_run = false;                      // connect --run
  bool do_info = false;                     // connect --info
  bool do_stats = false;                    // connect --stats
  bool do_shutdown = false;                 // connect --shutdown
  double stats_interval = 0.0;              // serve --stats-interval (0 = off)
  std::string trace_path;                   // serve --trace
  std::uint64_t memory_budget_bytes = 0;    // --memory-budget (0 = in-memory)
};

/// Parse "1000", "512K", "64M", "2G" (suffix = binary multiplier).
bool parse_byte_size(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t multiplier = 1;
  std::string digits = text;
  switch (digits.back()) {
    case 'K': case 'k': multiplier = 1ull << 10; digits.pop_back(); break;
    case 'M': case 'm': multiplier = 1ull << 20; digits.pop_back(); break;
    case 'G': case 'g': multiplier = 1ull << 30; digits.pop_back(); break;
    default: break;
  }
  if (digits.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = value * multiplier;
  return true;
}

bool parse_betas(const std::string& list, std::vector<double>& out) {
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string item = list.substr(pos, comma - pos);
    if (item.empty()) return false;
    out.push_back(std::atof(item.c_str()));
    pos = comma + 1;
  }
  return !out.empty();
}

/// Parse everything after the subcommand. Returns false on bad syntax.
/// `needs_graph` is false for `connect`, which addresses a server
/// instead of a graph file.
bool parse_cli(int argc, char** argv, int first, Cli& cli,
               bool needs_graph = true) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](std::string& into) {
      if (i + 1 >= argc) return false;
      into = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--algo" && next(value)) {
      cli.request.algorithm = value;
    } else if (arg == "--beta" && next(value)) {
      cli.request.beta = std::atof(value.c_str());
    } else if (arg == "--seed" && next(value)) {
      cli.request.seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else if (arg == "--engine" && next(value)) {
      if (!mpx::parse_traversal_engine(value, cli.request.engine)) {
        std::fprintf(stderr, "decomp_tool: unknown engine '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (arg == "--betas" && next(value)) {
      if (!parse_betas(value, cli.betas)) return false;
    } else if (arg == "--out" && next(value)) {
      cli.out_path = value;
    } else if (arg == "--load" && next(value)) {
      cli.load_path = value;
    } else if (arg == "--cluster-of" && next(value)) {
      cli.cluster_of.push_back(
          static_cast<mpx::vertex_t>(std::atoll(value.c_str())));
    } else if (arg == "--distance") {
      std::string u;
      std::string v;
      if (!next(u) || !next(v)) return false;
      cli.has_distance = true;
      cli.distance_u = static_cast<mpx::vertex_t>(std::atoll(u.c_str()));
      cli.distance_v = static_cast<mpx::vertex_t>(std::atoll(v.c_str()));
    } else if (arg == "--boundary") {
      cli.boundary = true;
    } else if (arg == "--socket" && next(value)) {
      cli.socket_path = value;
    } else if (arg == "--host" && next(value)) {
      cli.host = value;
    } else if (arg == "--port" && next(value)) {
      cli.port = std::atoi(value.c_str());
      if (cli.port < 0 || cli.port > 65535) {
        std::fprintf(stderr, "decomp_tool: bad port '%s'\n", value.c_str());
        return false;
      }
    } else if (arg == "--workers" && next(value)) {
      cli.workers = std::atoi(value.c_str());
      if (cli.workers < 1) {
        std::fprintf(stderr, "decomp_tool: --workers must be >= 1\n");
        return false;
      }
    } else if (arg == "--warm" && next(value)) {
      cli.warm_path = value;
    } else if (arg == "--memory-budget" && next(value)) {
      if (!parse_byte_size(value, cli.memory_budget_bytes)) {
        std::fprintf(stderr, "decomp_tool: bad --memory-budget '%s'\n",
                     value.c_str());
        return false;
      }
    } else if (arg == "--stats-interval" && next(value)) {
      cli.stats_interval = std::atof(value.c_str());
      if (cli.stats_interval <= 0.0) {
        std::fprintf(stderr,
                     "decomp_tool: --stats-interval must be > 0 seconds\n");
        return false;
      }
    } else if (arg == "--trace" && next(value)) {
      cli.trace_path = value;
    } else if (arg == "--rounds") {
      cli.rounds = true;
    } else if (arg == "--run") {
      cli.do_run = true;
    } else if (arg == "--info") {
      cli.do_info = true;
    } else if (arg == "--stats") {
      cli.do_stats = true;
    } else if (arg == "--shutdown") {
      cli.do_shutdown = true;
    } else if (needs_graph && cli.graph_path.empty() &&
               arg.rfind("--", 0) != 0) {
      cli.graph_path = arg;
    } else {
      // connect takes no positional argument: silently absorbing one as
      // an unused graph path would hide a forgotten --socket.
      std::fprintf(stderr, "decomp_tool: unexpected argument '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  return !needs_graph || !cli.graph_path.empty();
}

DecompositionSession open_session(const std::string& path,
                                  std::uint64_t memory_budget_bytes = 0) {
  const mpx::io::GraphFileFormat format = mpx::io::detect_graph_format(path);
  switch (format) {
    case mpx::io::GraphFileFormat::kSnapshot:
    case mpx::io::GraphFileFormat::kWeightedSnapshot: {
      mpx::SessionConfig config;
      config.memory_budget_bytes = memory_budget_bytes;
      // Zero-copy mmap, or paged when the budget demands it.
      return DecompositionSession::open_snapshot(path, config);
    }
    case mpx::io::GraphFileFormat::kWeightedEdgeListText:
      return DecompositionSession(mpx::io::load_weighted_graph(path));
    case mpx::io::GraphFileFormat::kEdgeListText:
      break;
  }
  return DecompositionSession(mpx::io::load_graph(path));
}

void print_result_line(const DecompositionResult& result) {
  const mpx::RunTelemetry& t = result.telemetry;
  std::printf("clusters: %u\n", result.num_clusters());
  std::printf(
      "telemetry: engine=%s threads=%d rounds=%u pull_rounds=%u phases=%u "
      "arcs_scanned=%llu\n",
      t.engine.c_str(), t.threads, t.rounds, t.pull_rounds, t.phases,
      static_cast<unsigned long long>(t.arcs_scanned));
  if (t.cache_hits != 0 || t.cache_misses != 0 || t.cache_evictions != 0) {
    std::printf("block cache: %llu hits, %llu misses, %llu evictions\n",
                static_cast<unsigned long long>(t.cache_hits),
                static_cast<unsigned long long>(t.cache_misses),
                static_cast<unsigned long long>(t.cache_evictions));
  }
  // Full phase table: the shift phase split into its draw/rank halves,
  // then the BFS/search and assemble phases, each as a share of total.
  const auto row = [&](const char* phase, double seconds) {
    std::printf("  %-14s %12.6f %9.1f%%\n", phase, seconds,
                t.total_seconds > 0.0 ? 100.0 * seconds / t.total_seconds
                                      : 0.0);
  };
  std::printf("phase timings:\n");
  std::printf("  %-14s %12s %10s\n", "phase", "seconds", "of total");
  row("shift.draw", t.shift_draw_seconds);
  row("shift.rank", t.shift_rank_seconds);
  row("shift (all)", t.shift_seconds);
  row("search", t.search_seconds);
  row("assemble", t.assemble_seconds);
  row("total", t.total_seconds);
}

/// Re-runs `req` with a per-round log and prints it. The search is
/// deterministic, so the log describes the same decomposition run() made.
void print_round_log(const DecompositionSession& session, const Cli& cli) {
  if (cli.request.algorithm != "mpx") {
    std::printf("rounds: only the mpx search keeps a per-round log\n");
    return;
  }
  mpx::RoundLog log;
  mpx::DecompositionWorkspace ws;
  ws.round_log = &log;
  if (session.paged()) {
    const mpx::storage::PagedGraph paged(
        std::make_shared<const mpx::io::SnapshotBlockReader>(cli.graph_path),
        cli.memory_budget_bytes);
    (void)mpx::decompose(paged, cli.request, &ws);
  } else {
    (void)mpx::decompose(session.topology(), cli.request, &ws);
  }
  std::printf("per-round log (%zu rounds):\n", log.rounds().size());
  std::printf("  %5s %4s %9s %9s %9s %11s %10s %10s\n", "round", "dir",
              "activ", "frontier", "settled", "arcs", "expand_us",
              "settle_us");
  for (const mpx::TraversalRound& r : log.rounds()) {
    std::printf("  %5u %4s %9zu %9zu %9zu %11llu %10.1f %10.1f\n", r.round,
                r.pull ? "pull" : "push", r.activations, r.frontier,
                r.settled, static_cast<unsigned long long>(r.arcs),
                r.expand_seconds * 1e6, r.settle_seconds * 1e6);
  }
  if (log.dropped() > 0) {
    std::printf("  (%zu later rounds not recorded)\n", log.dropped());
  }
}

int cmd_algorithms() {
  std::printf("registered algorithms (core/decomposer.hpp):\n");
  for (const mpx::AlgorithmInfo& info : mpx::registered_algorithms()) {
    std::printf("  %-14s %s%s\n", std::string(info.name).c_str(),
                std::string(info.summary).c_str(),
                info.needs_weights ? " [needs weights]" : "");
  }
  return 0;
}

int cmd_run(const Cli& cli) {
  DecompositionSession session =
      open_session(cli.graph_path, cli.memory_budget_bytes);
  std::printf("graph: %s, n=%u, m=%llu%s%s\n", cli.graph_path.c_str(),
              session.num_vertices(),
              static_cast<unsigned long long>(session.num_edges()),
              session.weighted() ? ", weighted" : "",
              session.paged() ? ", paged (out-of-core)" : "");
  std::printf("run: algo=%s beta=%g seed=%llu\n",
              cli.request.algorithm.c_str(), cli.request.beta,
              static_cast<unsigned long long>(cli.request.seed));
  const DecompositionResult& result = session.run(cli.request);
  print_result_line(result);
  if (cli.rounds) print_round_log(session, cli);
  const std::size_t cut = session.boundary_arcs(cli.request).size();
  const mpx::edge_t m = session.num_edges();
  std::printf("boundary: %zu cut edges (%.2f%% of m)\n", cut,
              m == 0 ? 0.0 : 100.0 * static_cast<double>(cut) /
                                 static_cast<double>(m));
  if (!cli.out_path.empty()) {
    session.save_cached(cli.request, cli.out_path);
    std::printf("wrote %s (decomposition + telemetry block)\n",
                cli.out_path.c_str());
  }
  return 0;
}

int cmd_batch(const Cli& cli) {
  if (cli.betas.empty()) {
    std::fprintf(stderr, "decomp_tool batch: --betas is required\n");
    return 2;
  }
  DecompositionSession session =
      open_session(cli.graph_path, cli.memory_budget_bytes);
  std::printf("graph: %s, n=%u, m=%llu%s%s\n", cli.graph_path.c_str(),
              session.num_vertices(),
              static_cast<unsigned long long>(session.num_edges()),
              session.weighted() ? ", weighted" : "",
              session.paged() ? ", paged (out-of-core)" : "");
  mpx::WallTimer timer;
  const std::vector<const DecompositionResult*> results =
      session.run_batch(cli.request, cli.betas);
  const double batch_seconds = timer.seconds();

  std::printf("%10s %10s %12s %10s %12s\n", "beta", "clusters", "cut_edges",
              "rounds", "search_secs");
  DecompositionRequest req = cli.request;
  for (std::size_t i = 0; i < results.size(); ++i) {
    req.beta = cli.betas[i];
    const std::size_t cut = session.boundary_arcs(req).size();
    std::printf("%10g %10u %12zu %10u %12.6f\n", cli.betas[i],
                results[i]->num_clusters(), cut, results[i]->telemetry.rounds,
                results[i]->telemetry.search_seconds);
  }
  std::printf("batch of %zu betas in %.6fs (shifts generated once per seed)\n",
              results.size(), batch_seconds);
  return 0;
}

int cmd_query(const Cli& cli) {
  DecompositionSession session =
      open_session(cli.graph_path, cli.memory_budget_bytes);
  if (!cli.load_path.empty()) {
    if (session.load_cached(cli.request, cli.load_path)) {
      std::printf("loaded cached decomposition from %s\n",
                  cli.load_path.c_str());
    } else {
      std::fprintf(stderr, "decomp_tool: cannot open %s\n",
                   cli.load_path.c_str());
      return 1;
    }
  }
  const mpx::vertex_t n = session.num_vertices();
  for (const mpx::vertex_t v : cli.cluster_of) {
    if (v >= n) {
      std::fprintf(stderr, "decomp_tool: vertex %u out of range (n=%u)\n", v,
                   n);
      return 1;
    }
    std::printf("vertex %u: cluster %u, center %u\n", v,
                session.cluster_of(v, cli.request),
                session.owner_of(v, cli.request));
  }
  if (cli.has_distance) {
    if (cli.distance_u >= n || cli.distance_v >= n) {
      std::fprintf(stderr, "decomp_tool: vertex out of range (n=%u)\n", n);
      return 1;
    }
    const std::uint32_t estimate = session.estimate_distance(
        cli.distance_u, cli.distance_v, cli.request);
    if (estimate == mpx::kInfDist) {
      std::printf("distance(%u, %u) ~ unreachable\n", cli.distance_u,
                  cli.distance_v);
    } else {
      std::printf("distance(%u, %u) <= %u\n", cli.distance_u, cli.distance_v,
                  estimate);
    }
  }
  if (cli.boundary) {
    const std::span<const mpx::Edge> boundary =
        session.boundary_arcs(cli.request);
    std::printf("boundary: %zu cut edges\n", boundary.size());
    for (std::size_t i = 0; i < boundary.size() && i < 8; ++i) {
      std::printf("  %u - %u\n", boundary[i].u, boundary[i].v);
    }
  }
  if (cli.cluster_of.empty() && !cli.has_distance && !cli.boundary) {
    std::fprintf(stderr, "decomp_tool query: no query given\n");
    return 2;
  }
  return 0;
}

// --- serve / connect: the process boundary (src/server/) -------------------

/// Print a metrics-registry snapshot: non-empty latency histograms as
/// p50/p90/p99/max rows (milliseconds), then counters and gauges.
void print_metrics(std::FILE* out, const mpx::obs::MetricsSnapshot& m) {
  const auto ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  bool any_hist = false;
  for (const mpx::obs::NamedHistogram& h : m.histograms) {
    if (h.histogram.count == 0) continue;
    if (!any_hist) {
      std::fprintf(out, "  %-26s %10s %10s %10s %10s %10s\n", "histogram",
                   "count", "p50_ms", "p90_ms", "p99_ms", "max_ms");
      any_hist = true;
    }
    std::fprintf(out, "  %-26s %10llu %10.3f %10.3f %10.3f %10.3f\n",
                 h.name.c_str(),
                 static_cast<unsigned long long>(h.histogram.count),
                 ms(h.histogram.quantile(0.5)), ms(h.histogram.quantile(0.9)),
                 ms(h.histogram.quantile(0.99)), ms(h.histogram.max));
  }
  for (const mpx::obs::CounterSnapshot& c : m.counters) {
    std::fprintf(out, "  %-26s %10llu\n", c.name.c_str(),
                 static_cast<unsigned long long>(c.value));
  }
  for (const mpx::obs::GaugeSnapshot& g : m.gauges) {
    std::fprintf(out, "  %-26s %10lld\n", g.name.c_str(),
                 static_cast<long long>(g.value));
  }
}

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_serve(const Cli& cli) {
  if (cli.socket_path.empty() && cli.port < 0) {
    std::fprintf(stderr, "decomp_tool serve: --socket or --port required\n");
    return 2;
  }
  mpx::server::ServerConfig config;
  config.snapshot_path = cli.graph_path;
  config.socket_path = cli.socket_path;
  config.tcp_port = cli.port < 0 ? 0 : static_cast<std::uint16_t>(cli.port);
  config.workers = cli.workers;
  config.memory_budget_bytes = cli.memory_budget_bytes;
  config.trace_path = cli.trace_path;
  if (!cli.warm_path.empty()) {
    config.warm.push_back({cli.request, cli.warm_path});
  }

  mpx::server::DecompServer server(std::move(config));
  try {
    server.start();
  } catch (const std::exception& e) {
    // The promised clear path:errno message — never an abort.
    std::fprintf(stderr, "decomp_tool serve: %s\n", e.what());
    return 1;
  }
  if (!cli.socket_path.empty()) {
    std::printf("serving %s on unix:%s (%d worker%s)\n",
                cli.graph_path.c_str(), cli.socket_path.c_str(), cli.workers,
                cli.workers == 1 ? "" : "s");
  } else {
    // The server binds loopback only; print the address it actually
    // listens on, not a --host the flag parser happened to accept.
    std::printf("serving %s on tcp:127.0.0.1:%u (%d worker%s)\n",
                cli.graph_path.c_str(), server.port(), cli.workers,
                cli.workers == 1 ? "" : "s");
  }
  std::fflush(stdout);

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  mpx::WallTimer stats_clock;
  while (g_stop_requested == 0 && !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (cli.stats_interval > 0.0 &&
        stats_clock.seconds() >= cli.stats_interval) {
      stats_clock.reset();
      // Operator-facing liveness dump; stderr so stdout stays parseable.
      const mpx::server::StatsResponse s = server.stats();
      std::fprintf(stderr,
                   "stats: %llu requests, %llu connections, %llu errors, "
                   "%llu computed, %.3fs service time\n",
                   static_cast<unsigned long long>(s.requests),
                   static_cast<unsigned long long>(s.connections),
                   static_cast<unsigned long long>(s.errors),
                   static_cast<unsigned long long>(s.results_computed),
                   s.service_seconds);
      print_metrics(stderr, s.metrics);
      std::fflush(stderr);
    }
  }
  server.stop();
  const mpx::server::StatsResponse stats = server.stats();
  std::printf(
      "served %llu request%s on %llu connection%s (%llu error%s, "
      "%.3fs total service time)\n",
      static_cast<unsigned long long>(stats.requests),
      stats.requests == 1 ? "" : "s",
      static_cast<unsigned long long>(stats.connections),
      stats.connections == 1 ? "" : "s",
      static_cast<unsigned long long>(stats.errors),
      stats.errors == 1 ? "" : "s", stats.service_seconds);
  if (!cli.trace_path.empty()) {
    std::printf("wrote trace: %s\n", cli.trace_path.c_str());
  }
  return 0;
}

int cmd_connect(const Cli& cli) {
  if (cli.socket_path.empty() && cli.port < 0) {
    std::fprintf(stderr, "decomp_tool connect: --socket or --port required\n");
    return 2;
  }
  mpx::server::DecompClient client =
      cli.socket_path.empty()
          ? mpx::server::DecompClient::connect_tcp(
                cli.host, static_cast<std::uint16_t>(cli.port))
          : mpx::server::DecompClient::connect_unix(cli.socket_path);

  bool did_something = false;
  if (cli.do_info) {
    const mpx::server::InfoResponse info = client.info();
    std::printf("server: n=%llu, m=%llu%s, %u worker%s, %llu requests "
                "served\n",
                static_cast<unsigned long long>(info.num_vertices),
                static_cast<unsigned long long>(info.num_edges),
                info.weighted ? ", weighted" : "", info.workers,
                info.workers == 1 ? "" : "s",
                static_cast<unsigned long long>(info.requests_served));
    if (info.cache_hits != 0 || info.cache_misses != 0 ||
        info.cache_evictions != 0) {
      std::printf("block cache: %llu hits, %llu misses, %llu evictions\n",
                  static_cast<unsigned long long>(info.cache_hits),
                  static_cast<unsigned long long>(info.cache_misses),
                  static_cast<unsigned long long>(info.cache_evictions));
    }
    did_something = true;
  }
  if (cli.do_stats) {
    const mpx::server::StatsResponse stats = client.server_stats();
    std::printf("server stats:\n");
    std::printf(
        "  requests=%llu (info=%llu run=%llu query=%llu boundary=%llu "
        "batch=%llu stats=%llu) errors=%llu\n",
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.info_requests),
        static_cast<unsigned long long>(stats.run_requests),
        static_cast<unsigned long long>(stats.query_requests),
        static_cast<unsigned long long>(stats.boundary_requests),
        static_cast<unsigned long long>(stats.batch_requests),
        static_cast<unsigned long long>(stats.stats_requests),
        static_cast<unsigned long long>(stats.errors));
    std::printf(
        "  connections=%llu accept_backoffs=%llu write_timeouts=%llu "
        "service_seconds=%.3f\n",
        static_cast<unsigned long long>(stats.connections),
        static_cast<unsigned long long>(stats.accept_backoffs),
        static_cast<unsigned long long>(stats.write_timeouts),
        stats.service_seconds);
    std::printf(
        "  store: %llu resident, %llu computed; block cache: %llu hits, "
        "%llu misses, %llu evictions, %llu blocks / %llu bytes resident\n",
        static_cast<unsigned long long>(stats.store_resident_results),
        static_cast<unsigned long long>(stats.store_computes),
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.cache_misses),
        static_cast<unsigned long long>(stats.cache_evictions),
        static_cast<unsigned long long>(stats.cache_resident_blocks),
        static_cast<unsigned long long>(stats.cache_resident_bytes));
    print_metrics(stdout, stats.metrics);
    did_something = true;
  }
  if (cli.do_run) {
    const mpx::server::RunResponse run = client.run(cli.request);
    std::printf("run: algo=%s beta=%g seed=%llu -> %u clusters, %u rounds%s\n",
                cli.request.algorithm.c_str(), cli.request.beta,
                static_cast<unsigned long long>(cli.request.seed),
                run.num_clusters, run.rounds,
                run.from_cache ? " (cached)" : "");
    did_something = true;
  }
  if (!cli.betas.empty()) {
    const mpx::server::BatchResponse batch =
        client.batch(cli.request, cli.betas);
    std::printf("%10s %10s %12s %10s\n", "beta", "clusters", "cut_edges",
                "rounds");
    for (const mpx::server::BatchEntry& e : batch.entries) {
      std::printf("%10g %10u %12llu %10u\n", e.beta, e.num_clusters,
                  static_cast<unsigned long long>(e.boundary_edges), e.rounds);
    }
    did_something = true;
  }
  for (const mpx::vertex_t v : cli.cluster_of) {
    std::printf("vertex %u: cluster %u, center %u\n", v,
                client.cluster_of(v, cli.request),
                client.owner_of(v, cli.request));
    did_something = true;
  }
  if (cli.has_distance) {
    const std::uint32_t estimate = client.estimate_distance(
        cli.distance_u, cli.distance_v, cli.request);
    if (estimate == mpx::kInfDist) {
      std::printf("distance(%u, %u) ~ unreachable\n", cli.distance_u,
                  cli.distance_v);
    } else {
      std::printf("distance(%u, %u) <= %u\n", cli.distance_u, cli.distance_v,
                  estimate);
    }
    did_something = true;
  }
  if (cli.boundary) {
    const std::vector<mpx::Edge> boundary = client.boundary_arcs(cli.request);
    std::printf("boundary: %zu cut edges\n", boundary.size());
    for (std::size_t i = 0; i < boundary.size() && i < 8; ++i) {
      std::printf("  %u - %u\n", boundary[i].u, boundary[i].v);
    }
    did_something = true;
  }
  if (cli.do_shutdown) {
    client.shutdown_server();
    std::printf("server acknowledged shutdown\n");
    did_something = true;
  }
  if (!did_something) {
    std::fprintf(stderr, "decomp_tool connect: no request given\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "algorithms") return cmd_algorithms();
    Cli cli;
    if (!parse_cli(argc, argv, 2, cli, /*needs_graph=*/cmd != "connect")) {
      return usage();
    }
    if (cmd == "run") return cmd_run(cli);
    if (cmd == "batch") return cmd_batch(cli);
    if (cmd == "query") return cmd_query(cli);
    if (cmd == "serve") return cmd_serve(cli);
    if (cmd == "connect") return cmd_connect(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "decomp_tool: %s\n", e.what());
    return 1;
  }
  return usage();
}
