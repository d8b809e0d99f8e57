// mpxbench: the mpx benchmark.
//
//   mpxbench --workload <mesh-mem|mesh-paged|serve-query|serve-churn>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Generates the workload's inputs from the seed, sets up, measures for the
// given seconds, checks every output, and prints the machine record, a
// report of every named number, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Scratch files
// live under .bench_build/ of the working directory; a traced run also
// writes its spans to .bench_build/traces/.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "workloads.hpp"

namespace mpxbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// The per-layer metrics, in BENCHMARK.json order.
constexpr LayerMetric kLayerMetrics[] = {
    {"graph.open_s", "s"},
    {"storage.cache_hits", "count"},
    {"storage.cache_misses", "count"},
    {"storage.cache_evictions", "count"},
    {"storage.hit_ratio", "ratio"},
    {"storage.resident_bytes_max", "bytes"},
    {"storage.sweep_s", "s"},
    {"shifts.draw_s", "s"},
    {"shifts.rank_s", "s"},
    {"bfs.search_s", "s"},
    {"bfs.rounds", "count"},
    {"bfs.pull_rounds", "count"},
    {"bfs.arcs_per_arc", "ratio"},
    {"decomposer.assemble_s", "s"},
    {"decomposer.residual_s", "s"},
    {"decomposer.residual_share", "ratio"},
    {"store.hit_us", "us"},
    {"store.compute_ms", "ms"},
    {"store.materialize_ms", "ms"},
    {"store.hit_ratio", "ratio"},
    {"store.computes", "count"},
    {"server.queue_wait_p50_us", "us"},
    {"server.queue_wait_p99_us", "us"},
    {"server.service_query_p50_us", "us"},
    {"server.service_run_p50_us", "us"},
    {"server.response_write_p50_us", "us"},
    {"server.response_write_p99_us", "us"},
    {"server.wire_residual_us", "us"},
    {"server.wire_residual_share", "ratio"},
    {"client.rtt_idle_us", "us"},
    {"client.send_lag_p99_us", "us"},
    {"obs.trace_overhead_pct", "%"},
};

struct Args {
  RunOptions run;
  bool ok = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.run.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.run.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      a.run.seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(a.run.seconds > 0)) return a;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return a;
      a.run.trace = value == "1";
    } else {
      return a;
    }
  }
  a.ok = have_workload && have_seed && argc % 2 == 1;
  return a;
}

/// The OpenMP team a workload runs with: the whole machine for the single
/// in-process caller of the mesh workloads; for the serve workloads what
/// the dispatcher, the workers and the client thread leave over.
int omp_team_for(const std::string& workload) {
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  if (workload.rfind("serve-", 0) == 0) return std::max(1, hw - 2 - 1 - 1);
  return hw;
}

}  // namespace

void emit_end_to_end(Outcome& out, const EndToEnd& e) {
  out.metrics = {{"setup_s", e.setup_s, "s", 0},
                 {"latency_p50_ms", e.latency_p50_ms, "ms", 0},
                 {"throughput_per_s", e.throughput_per_s, "1/s", 0},
                 {"peak_rss_mb", e.peak_rss_mb, "MiB", 0}};
}

void emit_layers(Outcome& out, const LayerValues& layers) {
  out.metrics.clear();
  for (const LayerMetric& lm : kLayerMetrics) {
    const auto it = layers.find(lm.name);
    out.metrics.push_back(
        {lm.name, it == layers.end() ? 0.0 : it->second, lm.unit, 0});
  }
}

}  // namespace mpxbench

int main(int argc, char** argv) {
  using namespace mpxbench;
  const Args args = parse(argc, argv);
  const std::string& w = args.run.workload;
  const bool known = w == "mesh-mem" || w == "mesh-paged" ||
                     w == "serve-query" || w == "serve-churn";
  if (!args.ok || !known) {
    std::fprintf(stderr,
                 "usage: mpxbench --workload "
                 "<mesh-mem|mesh-paged|serve-query|serve-churn> --seed <n> "
                 "[--seconds <s>] [--trace <0|1>]\n");
    return 2;
  }

  // Every thread inherits the OpenMP team size from the environment at
  // start-up, so a workload's team is fixed by re-executing with it set.
  const std::string team = std::to_string(omp_team_for(w));
  const char* env = std::getenv("OMP_NUM_THREADS");
  if (env == nullptr || team != env) {
    ::setenv("OMP_NUM_THREADS", team.c_str(), 1);
    ::execv("/proc/self/exe", argv);
    std::perror("mpxbench: re-exec");
    return 1;
  }

  RunOptions opt = args.run;
  opt.work_dir = ".bench_build/work-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir);
  int status = 0;
  try {
    SpanRecorder rec(opt.trace);
    const MachineRecord machine = machine_record(w, opt.seed, opt.trace);
    const Outcome outcome = w.rfind("mesh-", 0) == 0
                                ? run_mesh(opt, w == "mesh-paged", rec)
                                : run_serve(opt, w == "serve-churn", rec);
    if (rec.enabled()) {
      std::filesystem::create_directories(".bench_build/traces");
      const std::string path = ".bench_build/traces/" + w + "-seed" +
                               std::to_string(opt.seed) + ".json";
      if (!rec.write_chrome_json(path)) {
        std::fprintf(stderr, "mpxbench: cannot write %s\n", path.c_str());
      } else {
        std::printf("trace %s (%zu spans)\n", path.c_str(),
                    rec.spans().size());
      }
    }
    print_outcome(machine, outcome);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "mpxbench: %s\n", ex.what());
    status = 1;
  }
  std::filesystem::remove_all(opt.work_dir, ec);
  return status;
}
