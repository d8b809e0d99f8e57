// Traversal-engine ablation: push vs pull vs direction-optimizing auto on
// the partition hot path, at the scales the ROADMAP calls out
// (grid2d(3000,3000), rmat(20)). Writes the machine-readable trajectory
// artifact BENCH_frontier.json so CI accumulates the perf history.
//
//   ./bench_frontier [out.json] [--scale small|full] [--reps N]
//                    [--beta B] [--seed S] [--graph file]...
//
// "--graph <path>" (repeatable; text edge list or .mpxs snapshot, see
// docs/FORMATS.md) replaces the generated families, so big inputs are
// ingested once instead of re-generated per run.
//
// JSON format (one object):
//   {
//     "bench": "frontier",
//     "machine": {...},            // bench/machine.hpp record
//     "threads": <int>,            // OpenMP threads used
//     "beta": <double>, "seed": <int>,
//     "results": [                 // one entry per graph x engine
//       {"graph": str, "n": int, "m": int, "engine": "push|pull|auto",
//        "seconds": double,        // best-of-reps search-phase seconds
//                                  // (RunTelemetry.search_seconds: the
//                                  // engine-dependent BFS, shifts excluded)
//        "rounds": int, "pull_rounds": int, "arcs_scanned": int,
//        "clusters": int},
//       ...
//     ],
//     "speedup_auto_vs_push": {"<graph>": <double>, ...}
//   }
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "graph_input.hpp"
#include "machine.hpp"
#include "mpx/mpx.hpp"
#include "table.hpp"

namespace {

struct Run {
  std::string graph;
  mpx::vertex_t n;
  mpx::edge_t m;
  mpx::TraversalEngine engine;
  double seconds = 0.0;
  std::uint32_t rounds = 0;
  std::uint32_t pull_rounds = 0;
  mpx::edge_t arcs_scanned = 0;
  mpx::cluster_t clusters = 0;
};

Run measure(const std::string& name, const mpx::CsrGraph& g,
            const mpx::DecompositionRequest& base, mpx::TraversalEngine engine,
            int reps, mpx::DecompositionWorkspace& workspace) {
  Run run;
  run.graph = name;
  run.n = g.num_vertices();
  run.m = g.num_edges();
  run.engine = engine;
  run.seconds = 1e100;
  mpx::DecompositionRequest req = base;
  req.engine = engine;
  for (int rep = 0; rep < reps; ++rep) {
    const mpx::DecompositionResult result =
        mpx::decompose(g, req, &workspace);
    // The telemetry's search phase is the engine-dependent quantity: shift
    // generation is identical across engines and excluded (as the
    // pre-facade partition_with_shifts timing also excluded it). Note the
    // pre-facade timing *included* the O(n) result-assembly pass, so the
    // "seconds" series steps down once at the facade migration commit.
    run.seconds = std::min(run.seconds, result.telemetry.search_seconds);
    run.rounds = result.telemetry.rounds;
    run.pull_rounds = result.telemetry.pull_rounds;
    run.arcs_scanned = result.telemetry.arcs_scanned;
    run.clusters = result.num_clusters();
  }
  return run;
}

void write_json(const std::string& path, const std::vector<Run>& runs,
                double beta, std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"frontier\",\n");
  mpx::bench::write_machine_json(f);
  std::fprintf(f, "  \"threads\": %d,\n", mpx::max_threads());
  std::fprintf(f, "  \"beta\": %g,\n  \"seed\": %llu,\n", beta,
               static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    std::fprintf(
        f,
        "    {\"graph\": \"%s\", \"n\": %u, \"m\": %llu, "
        "\"engine\": \"%.*s\", \"seconds\": %.6f, \"rounds\": %u, "
        "\"pull_rounds\": %u, \"arcs_scanned\": %llu, \"clusters\": %u}%s\n",
        r.graph.c_str(), r.n, static_cast<unsigned long long>(r.m),
        static_cast<int>(mpx::traversal_engine_name(r.engine).size()),
        mpx::traversal_engine_name(r.engine).data(), r.seconds, r.rounds,
        r.pull_rounds, static_cast<unsigned long long>(r.arcs_scanned),
        r.clusters, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedup_auto_vs_push\": {\n");
  bool first = true;
  for (const Run& r : runs) {
    if (r.engine != mpx::TraversalEngine::kAuto) continue;
    double push_seconds = 0.0;
    for (const Run& p : runs) {
      if (p.graph == r.graph && p.engine == mpx::TraversalEngine::kPush) {
        push_seconds = p.seconds;
      }
    }
    std::fprintf(f, "%s    \"%s\": %.3f", first ? "" : ",\n",
                 r.graph.c_str(),
                 r.seconds > 0.0 ? push_seconds / r.seconds : 0.0);
    first = false;
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpx;

  std::string out = "BENCH_frontier.json";
  std::string scale = "full";
  int reps = 2;
  double beta = 0.1;
  std::uint64_t seed = 2013;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale" && i + 1 < argc) {
      scale = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--beta" && i + 1 < argc) {
      beta = std::atof(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--graph" && i + 1 < argc) {
      ++i;  // loaded below via bench::graphs_from_args
    } else {
      out = arg;
    }
  }

  bench::section("traversal engine ablation: push / pull / auto");
  std::printf("threads: %d, beta=%g, seed=%llu, scale=%s, reps=%d\n",
              max_threads(), beta, static_cast<unsigned long long>(seed),
              scale.c_str(), reps);

  struct Family {
    std::string name;
    CsrGraph graph;
  };
  std::vector<Family> families;
  for (bench::NamedInput& input : bench::graphs_from_args(argc, argv)) {
    families.push_back({input.name, std::move(input.graph)});
  }
  if (families.empty()) {
    if (scale == "full") {
      families.push_back({"grid2d_3000", generators::grid2d(3000, 3000)});
      families.push_back({"rmat_20", generators::rmat(20, 8.0, 1)});
    } else {
      families.push_back({"grid2d_600", generators::grid2d(600, 600)});
      families.push_back({"rmat_16", generators::rmat(16, 8.0, 1)});
    }
  }

  constexpr TraversalEngine kEngines[] = {
      TraversalEngine::kPush, TraversalEngine::kPull, TraversalEngine::kAuto};

  std::vector<Run> runs;
  bench::Table table({"graph", "engine", "secs", "rounds", "pull", "arcs",
                      "vs push"});
  DecompositionWorkspace workspace;  // shared across engines and graphs
  for (const Family& fam : families) {
    DecompositionRequest base;
    base.beta = beta;
    base.seed = seed;
    // Warm the workspace for this family before any engine is timed, so
    // the first-measured engine does not absorb the scratch allocation
    // the later ones skip.
    (void)decompose(fam.graph, base, &workspace);
    double push_seconds = 0.0;
    for (const TraversalEngine engine : kEngines) {
      const Run r = measure(fam.name, fam.graph, base, engine, reps,
                            workspace);
      if (engine == TraversalEngine::kPush) push_seconds = r.seconds;
      runs.push_back(r);
      table.row({fam.name, std::string(traversal_engine_name(engine)),
                 bench::Table::num(r.seconds, 3),
                 bench::Table::integer(r.rounds),
                 bench::Table::integer(r.pull_rounds),
                 bench::Table::integer(r.arcs_scanned),
                 bench::Table::num(push_seconds / r.seconds, 2)});
    }
  }

  write_json(out, runs, beta, seed);
  std::printf(
      "\nexpected shape: identical clusters/rounds per graph across "
      "engines; auto >= push everywhere, with the win largest on "
      "low-diameter graphs (rmat) where pull rounds skip most edges.\n");
  return 0;
}
