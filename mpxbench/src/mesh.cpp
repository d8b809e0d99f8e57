// mesh-mem and mesh-paged: one caller, a closed loop of decompose() calls
// on a 1000 x 1000 grid, either hot-mapped (io::map_snapshot) or served
// out-of-core (storage::PagedGraph at a 25% block budget).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "graph/snapshot_blocks.hpp"
#include "storage/paged_graph.hpp"
#include "workloads.hpp"

namespace mpxbench {

namespace {

constexpr mpx::vertex_t kGridSide = 1000;
/// Block budget of mesh-paged, as a share of the full-residency estimate.
constexpr double kPagedBudgetShare = 0.25;
/// A run always times at least this many calls, however long they take.
constexpr std::size_t kMinCalls = 5;

/// The graph a run decomposes, with everything set-up built for it.
struct MeshState {
  mpx::CsrGraph graph;                            // mesh-mem
  std::shared_ptr<mpx::storage::PagedGraph> paged;  // mesh-paged
  mpx::DecompositionWorkspace ws;
};

/// A decomposition's phase times laid out as child spans of `parent`: the
/// decomposer runs draw, rank, search and assemble back to back.
void add_phase_spans(SpanRecorder& rec, std::uint64_t parent,
                     std::uint64_t request, double start,
                     const mpx::RunTelemetry& t) {
  double at = start;
  const std::pair<const char*, double> phases[] = {
      {"shifts.draw", t.shift_draw_seconds},
      {"shifts.rank", t.shift_rank_seconds},
      {"bfs.search", t.search_seconds},
      {"decomposer.assemble", t.assemble_seconds}};
  for (const auto& [name, secs] : phases) {
    rec.add(name, parent, request, at, at + secs);
    at += secs;
  }
}

/// One ascending neighbors() sweep: the per-round access pattern of the
/// traversal, isolated from the traversal itself.
template <typename Graph>
double sweep_seconds(const Graph& g) {
  std::uint64_t sink = 0;
  const double t = now_s();
  for (mpx::vertex_t v = 0; v < g.num_vertices(); ++v) {
    for (const mpx::vertex_t w : g.neighbors(v)) sink += w;
  }
  const double secs = since(t);
  if (sink == 1) std::fprintf(stderr, "(unlikely)\n");
  return secs;
}

}  // namespace

Outcome run_mesh(const RunOptions& opt, bool paged, SpanRecorder& rec) {
  const std::string hot_path = opt.work_dir + "/grid_hot.mpxs";
  const std::string cold_path = opt.work_dir + "/grid_cold.mpxs";
  {
    const mpx::CsrGraph grid = mpx::generators::grid2d(kGridSide, kGridSide);
    mpx::io::save_snapshot(hot_path, grid, mpx::io::SnapshotWriteOptions{});
    if (paged) {
      mpx::io::SnapshotWriteOptions cold;
      cold.tier = mpx::io::SnapshotTier::kCold;
      mpx::io::save_snapshot(cold_path, grid, cold);
    }
  }
  const std::uint64_t budget =
      paged ? static_cast<std::uint64_t>(
                  kPagedBudgetShare *
                  static_cast<double>(mpx::io::read_snapshot_info(cold_path)
                                          .resident_bytes_estimate()))
            : 0;
  const mpx::DecompositionRequest warm_req =
      mpx_request(request_seed(opt.seed, ~0ull));

  // --- set-up: open the graph and warm the workspace, several times ---
  Samples setup_s;
  Samples open_s;
  MeshState st;
  for (int rep = 0; rep < kSetupWarmups + (paged ? 3 : kSetupReps); ++rep) {
    st = MeshState{};
    const ScopedSpan span(rec, "setup");
    const double t = now_s();
    {
      const ScopedSpan open(rec, "graph.open");
      if (paged) {
        auto reader =
            std::make_shared<const mpx::io::SnapshotBlockReader>(cold_path);
        open_s.add(since(t));
        st.paged = std::make_shared<mpx::storage::PagedGraph>(std::move(reader),
                                                              budget);
      } else {
        st.graph = mpx::io::map_snapshot(hot_path);
        open_s.add(since(t));
      }
    }
    {
      const ScopedSpan warm(rec, "decomposer.decompose");
      const mpx::DecompositionResult r =
          paged ? mpx::decompose(*st.paged, warm_req, &st.ws)
                : mpx::decompose(st.graph, warm_req, &st.ws);
      if (r.owner.size() != static_cast<std::size_t>(kGridSide) * kGridSide) {
        throw std::runtime_error("mpxbench: warm-up decomposition is empty");
      }
    }
    if (rep >= kSetupWarmups) setup_s.add(since(t));
  }

  // mesh-paged checks against the in-memory graph after the timed phase.
  mpx::CsrGraph reference;
  if (paged) reference = mpx::io::map_snapshot(hot_path);
  const mpx::edge_t arcs = (paged ? reference : st.graph).num_arcs();

  // --- timed phase: a closed loop of decompose() calls ---
  Samples call_s, untraced_call_s, traced_call_s;
  Samples draw_s, rank_s, search_s, assemble_s, residual_s;
  Samples rounds, pull_rounds, arcs_per_arc;
  Samples hits, misses, evictions;
  Samples cut, radius;
  std::uint64_t resident_max = 0;
  std::vector<std::uint64_t> paged_prints;  // mesh-paged, checked afterwards
  double peak_rss = 0.0;
  double busy = 0.0;
  Tally tally;
  for (std::uint64_t i = 0; busy < opt.seconds || call_s.count() < kMinCalls;
       ++i) {
    const mpx::DecompositionRequest req = mpx_request(request_seed(opt.seed, i));
    // A traced run alternates traced and untraced calls; the difference
    // between the two medians is the tracing overhead.
    const bool traced = rec.enabled() && i % 2 == 0;
    SpanRecorder off(false);
    SpanRecorder& r = traced ? rec : off;
    reset_peak_rss();
    const double t = now_s();
    mpx::DecompositionResult result;
    std::uint64_t span_id = 0;
    {
      const ScopedSpan span(r, "decomposer.decompose", i);
      span_id = span.id();
      result = paged ? mpx::decompose(*st.paged, req, &st.ws)
                     : mpx::decompose(st.graph, req, &st.ws);
    }
    const double dt = since(t);
    peak_rss = std::max(peak_rss, peak_rss_mib());
    busy += dt;
    call_s.add(dt);
    (traced ? traced_call_s : untraced_call_s).add(dt);
    const mpx::RunTelemetry& tel = result.telemetry;
    add_phase_spans(r, span_id, i, t, tel);
    draw_s.add(tel.shift_draw_seconds);
    rank_s.add(tel.shift_rank_seconds);
    search_s.add(tel.search_seconds);
    assemble_s.add(tel.assemble_seconds);
    residual_s.add(dt - tel.shift_draw_seconds - tel.shift_rank_seconds -
                   tel.search_seconds - tel.assemble_seconds);
    rounds.add(tel.rounds);
    pull_rounds.add(tel.pull_rounds);
    arcs_per_arc.add(static_cast<double>(tel.arcs_scanned) /
                     static_cast<double>(arcs));
    hits.add(static_cast<double>(tel.cache_hits));
    misses.add(static_cast<double>(tel.cache_misses));
    evictions.add(static_cast<double>(tel.cache_evictions));
    if (paged) {
      resident_max =
          std::max(resident_max, st.paged->cache().stats().resident_bytes);
      paged_prints.push_back(
          fingerprint_result(result.owner, result.settle));
      continue;
    }
    // mesh-mem: every result must pass the structural verifier with the
    // shifts it was drawn from (outside the timer).
    const ScopedSpan check(r, "check.verify", i);
    const mpx::VerifyResult v =
        mpx::verify_decomposition(result.decomposition, st.graph, st.ws.shifts);
    tally.check(v.ok, "verify_decomposition, request " + std::to_string(i) +
                          ": " + v.message);
    const mpx::DecompositionStats stats =
        mpx::analyze(result.decomposition, st.graph);
    cut.add(stats.cut_fraction);
    radius.add(stats.max_radius);
  }

  // mesh-paged: each result must equal the in-memory decomposition of the
  // same request, owner and settle byte for byte.
  if (paged) {
    mpx::DecompositionWorkspace ref_ws;
    for (std::uint64_t i = 0; i < paged_prints.size(); ++i) {
      const ScopedSpan check(rec, "check.in_memory", i);
      const mpx::DecompositionRequest req =
          mpx_request(request_seed(opt.seed, i));
      const mpx::DecompositionResult ref =
          mpx::decompose(reference, req, &ref_ws);
      tally.check(fingerprint_result(ref.owner, ref.settle) == paged_prints[i],
                  "paged result differs from in-memory, request " +
                      std::to_string(i));
      const mpx::DecompositionStats stats =
          mpx::analyze(ref.decomposition, reference);
      cut.add(stats.cut_fraction);
      radius.add(stats.max_radius);
    }
  }

  Outcome out;
  out.tally = tally;
  const double p50 = call_s.median();
  EndToEnd e;
  e.setup_s = setup_s.median();
  e.latency_p50_ms = p50 * 1e3;
  e.throughput_per_s = static_cast<double>(call_s.count()) / busy;
  e.peak_rss_mb = peak_rss;

  out.report.push_back({"setup_s", e.setup_s, "s", setup_s.count()});
  report_latency(out.report, "decompose", "s", call_s, 1.0);
  out.report.push_back({"decompose_per_s", e.throughput_per_s, "1/s", 0});
  out.report.push_back({"cut_fraction", cut.mean(), "ratio", cut.count()});
  out.report.push_back({"max_radius", radius.max(), "hops", radius.count()});
  out.report.push_back({"max_radius_p50", radius.median(), "hops",
                        radius.count()});
  out.report.push_back({"peak_rss_mb", e.peak_rss_mb, "MiB", 0});
  out.report.push_back({"failed_frac", tally.failed_frac(), "ratio", 0});

  if (!opt.trace) {
    emit_end_to_end(out, e);
    return out;
  }

  LayerValues layers;
  layers["graph.open_s"] = open_s.median();
  layers["shifts.draw_s"] = draw_s.median();
  layers["shifts.rank_s"] = rank_s.median();
  layers["bfs.search_s"] = search_s.median();
  layers["bfs.rounds"] = rounds.median();
  layers["bfs.pull_rounds"] = pull_rounds.median();
  layers["bfs.arcs_per_arc"] = arcs_per_arc.median();
  layers["decomposer.assemble_s"] = assemble_s.median();
  layers["decomposer.residual_s"] = residual_s.median();
  layers["decomposer.residual_share"] = residual_s.median() / p50;
  if (paged) {
    const double h = hits.median();
    const double m = misses.median();
    layers["storage.cache_hits"] = h;
    layers["storage.cache_misses"] = m;
    layers["storage.cache_evictions"] = evictions.median();
    layers["storage.hit_ratio"] = h + m > 0 ? h / (h + m) : 0.0;
    layers["storage.resident_bytes_max"] = static_cast<double>(resident_max);
    Samples sweep;
    for (int rep = 0; rep < 3; ++rep) {
      const ScopedSpan span(rec, "storage.sweep");
      sweep.add(sweep_seconds(*st.paged));
    }
    layers["storage.sweep_s"] = sweep.median();
  }
  layers["obs.trace_overhead_pct"] =
      (traced_call_s.median() / untraced_call_s.median() - 1.0) * 100.0;
  emit_layers(out, layers);
  out.report.push_back({"decomposer.residual_share",
                        layers["decomposer.residual_share"], "ratio", 0});
  return out;
}

}  // namespace mpxbench
