// Out-of-core serving benchmark: the paged decomposition path
// (storage/paged_graph.hpp) at shrinking cache budgets, against the same
// graph fully resident. Writes the machine-readable trajectory artifact
// BENCH_paged.json (schema: docs/BENCHMARKS.md) so CI accumulates the
// out-of-core history.
//
//   ./bench_paged [out.json] [--scale small|full] [--reps N]
//
// For each family the bench writes a cold-tier snapshot, then for cache
// budgets of 100% / 25% / 5% of the full-residency footprint measures:
//   * decompose_seconds    one "mpx" decomposition over the PagedGraph
//   * queries_per_second   random neighbors() lookups (the oracle-style
//                          point-read workload) against a warm cache
//   * cache hit/miss/eviction counters for the first (cold-cache)
//     decomposition run
// plus an in-memory baseline row (budget_fraction = 0 means "not paged")
// so the paged overhead is read directly from the table.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "machine.hpp"
#include "mpx/mpx.hpp"
#include "storage/paged_graph.hpp"
#include "table.hpp"

namespace {

struct Run {
  std::string graph;
  mpx::vertex_t n = 0;
  mpx::edge_t m = 0;
  double budget_fraction = 0.0;  // 0 = in-memory baseline
  std::uint64_t budget_bytes = 0;
  double decompose_seconds = 0.0;
  double queries_per_second = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
};

constexpr int kQueryRounds = 200000;

/// Random point-reads of adjacency, the distance-oracle access pattern.
template <typename Graph>
double measure_queries(const Graph& g, int reps) {
  double best = 0.0;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    mpx::Xoshiro256pp rng(12345 + rep);
    mpx::WallTimer timer;
    for (int i = 0; i < kQueryRounds; ++i) {
      const auto v =
          static_cast<mpx::vertex_t>(rng.next_below(g.num_vertices()));
      const auto nbrs = g.neighbors(v);
      if (!nbrs.empty()) sink += nbrs.front();
    }
    best = std::max(best, kQueryRounds / timer.seconds());
  }
  if (sink == 42) std::printf("(unlikely)\n");
  return best;
}

Run measure_paged(const std::string& name, const std::string& cold_path,
                  double fraction, std::uint64_t full_bytes,
                  const mpx::DecompositionRequest& req, int reps) {
  Run run;
  run.graph = name;
  run.budget_fraction = fraction;
  run.budget_bytes =
      static_cast<std::uint64_t>(static_cast<double>(full_bytes) * fraction);
  auto reader =
      std::make_shared<const mpx::io::SnapshotBlockReader>(cold_path);
  run.n = reader->num_vertices();
  run.m = reader->num_arcs() / 2;
  const mpx::storage::PagedGraph g(std::move(reader), run.budget_bytes);
  run.decompose_seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    mpx::WallTimer timer;
    const mpx::DecompositionResult result = mpx::decompose(g, req);
    run.decompose_seconds = std::min(run.decompose_seconds, timer.seconds());
    // The first rep starts from an empty cache; later reps reuse its
    // blocks, so at a 100% budget they would read zero misses.
    if (rep == 0) {
      run.cache_hits = result.telemetry.cache_hits;
      run.cache_misses = result.telemetry.cache_misses;
      run.cache_evictions = result.telemetry.cache_evictions;
    }
  }
  run.queries_per_second = measure_queries(g, reps);
  return run;
}

Run measure_in_memory(const std::string& name, const mpx::CsrGraph& g,
                      const mpx::DecompositionRequest& req, int reps) {
  Run run;
  run.graph = name;
  run.n = g.num_vertices();
  run.m = g.num_edges();
  run.decompose_seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    mpx::WallTimer timer;
    const mpx::DecompositionResult result = mpx::decompose(g, req);
    run.decompose_seconds = std::min(run.decompose_seconds, timer.seconds());
    if (result.owner.empty()) std::printf("(unlikely)\n");
  }
  run.queries_per_second = measure_queries(g, reps);
  return run;
}

void write_json(const std::string& path, const std::vector<Run>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"paged\",\n");
  mpx::bench::write_machine_json(f);
  std::fprintf(f, "  \"threads\": %d,\n", mpx::max_threads());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    std::fprintf(
        f,
        "    {\"graph\": \"%s\", \"n\": %u, \"m\": %llu, "
        "\"budget_fraction\": %.2f, \"budget_bytes\": %llu, "
        "\"decompose_seconds\": %.6f, \"queries_per_second\": %.1f, "
        "\"cache_hits\": %llu, \"cache_misses\": %llu, "
        "\"cache_evictions\": %llu}%s\n",
        r.graph.c_str(), r.n, static_cast<unsigned long long>(r.m),
        r.budget_fraction, static_cast<unsigned long long>(r.budget_bytes),
        r.decompose_seconds, r.queries_per_second,
        static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.cache_misses),
        static_cast<unsigned long long>(r.cache_evictions),
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mpx;

  std::string out = "BENCH_paged.json";
  std::string scale = "full";
  int reps = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale" && i + 1 < argc) {
      scale = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      out = arg;
    }
  }

  bench::section("out-of-core decomposition: PagedGraph vs in-memory");
  std::printf("threads: %d, scale=%s, reps=%d\n", max_threads(), scale.c_str(),
              reps);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "mpx_bench_paged").string();
  std::filesystem::create_directories(dir);

  struct Family {
    std::string name;
    CsrGraph graph;
  };
  std::vector<Family> families;
  if (scale == "full") {
    families.push_back({"grid2d_3000", generators::grid2d(3000, 3000)});
    families.push_back({"rmat_20", generators::rmat(20, 8.0, 1)});
  } else {
    families.push_back({"grid2d_600", generators::grid2d(600, 600)});
    families.push_back({"rmat_16", generators::rmat(16, 8.0, 1)});
  }

  DecompositionRequest req;
  req.beta = 0.1;
  req.seed = 1;

  const double fractions[] = {1.0, 0.25, 0.05};
  std::vector<Run> runs;
  bench::Table table({"graph", "budget", "decomp_s", "queries/s", "hits",
                      "misses", "evict"});
  for (const Family& fam : families) {
    const std::string cold_path = dir + "/" + fam.name + "_cold.mpxs";
    io::SnapshotWriteOptions cold;
    cold.tier = io::SnapshotTier::kCold;
    io::save_snapshot(cold_path, fam.graph, cold);
    const std::uint64_t full_bytes =
        io::read_snapshot_info(cold_path).resident_bytes_estimate();

    const Run base = measure_in_memory(fam.name, fam.graph, req, reps);
    runs.push_back(base);
    table.row({fam.name, "in-mem", bench::Table::num(base.decompose_seconds, 3),
               bench::Table::num(base.queries_per_second, 0), "-", "-", "-"});
    for (const double fraction : fractions) {
      const Run r =
          measure_paged(fam.name, cold_path, fraction, full_bytes, req, reps);
      runs.push_back(r);
      char budget[32];
      std::snprintf(budget, sizeof budget, "%d%%",
                    static_cast<int>(fraction * 100));
      table.row({r.graph, budget, bench::Table::num(r.decompose_seconds, 3),
                 bench::Table::num(r.queries_per_second, 0),
                 bench::Table::integer(r.cache_hits),
                 bench::Table::integer(r.cache_misses),
                 bench::Table::integer(r.cache_evictions)});
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  write_json(out, runs);
  std::printf(
      "\nexpected shape: owner/settle output is byte-identical at every "
      "budget (tests/test_paged_graph.cpp enforces it); at 100%% budget the "
      "paged decomposition pays the one-time decode (misses == blocks, no "
      "evictions); squeezing to 5%% trades time for memory roughly linearly "
      "in the re-decode traffic (evictions climb, hit rate falls), while "
      "resident bytes stay bounded by the budget throughout.\n");
  return 0;
}
