#include "core/decomposer.hpp"

#include <stdexcept>
#include <utility>

#include "baselines/ball_growing.hpp"
#include "baselines/bgkmpt.hpp"
#include "bfs/multi_source_bfs_impl.hpp"
#include "core/bucketed_partition.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_env.hpp"
#include "storage/paged_graph.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace mpx {
namespace {

/// Shift generation shared by every shift-based runner: derive from the
/// basis when one is supplied (batch runs), draw directly otherwise. The
/// workspace-recorded draw/rank split lands in `telemetry` so the shift
/// phase is attributable (sort retirement made rank the variable part).
void shifts_for(vertex_t n, const PartitionOptions& opt,
                DecompositionWorkspace& ws, const ShiftBasis* basis,
                RunTelemetry& telemetry) {
  if (basis != nullptr) {
    shifts_from_basis(*basis, opt, ws.shifts, &ws.shift_scratch);
  } else {
    generate_shifts(n, opt, ws.shifts, &ws.shift_scratch);
  }
  telemetry.shift_draw_seconds = ws.shift_scratch.last_draw_seconds;
  telemetry.shift_rank_seconds = ws.shift_scratch.last_rank_seconds;
}

using detail::owner_settle_from_decomposition;

/// Lift a WeightedDecomposition into the owner/radii contract.
void owner_radii_from_weighted(const WeightedDecomposition& dec,
                               DecompositionResult& out) {
  const vertex_t n = dec.num_vertices();
  out.is_weighted = true;
  out.owner.resize(n);
  parallel_for(vertex_t{0}, n, [&](vertex_t v) {
    out.owner[v] = dec.centers[dec.assignment[v]];
  });
  out.radii = dec.dist_to_center;
}

/// Graph-generic MPX runner: the same phases over any backend exposing
/// the CsrGraph read contract (in-memory CsrGraph, storage::PagedGraph).
template <typename Graph>
DecompositionResult run_mpx_impl(const Graph& g,
                                 const DecompositionRequest& req,
                                 DecompositionWorkspace& ws,
                                 const ShiftBasis* basis) {
  const WallTimer total;
  DecompositionResult result;
  const PartitionOptions opt = req.partition_options();

  WallTimer phase;
  shifts_for(g.num_vertices(), opt, ws, basis, result.telemetry);
  result.telemetry.shift_seconds = phase.seconds();

  phase.reset();
  MultiSourceBfsResult bfs = detail::delayed_multi_source_bfs_impl(
      g, std::span<const std::uint32_t>(ws.shifts.start_round),
      std::span<const std::uint32_t>(ws.shifts.rank), kInfDist, req.engine,
      &ws.bfs, ws.round_log);
  result.telemetry.search_seconds = phase.seconds();

  phase.reset();
  const vertex_t n = g.num_vertices();
  // Distances overwrite the settle rounds in place, so the call holds one
  // n-sized array fewer at its peak.
  result.settle = std::move(bfs.settle_round);
  parallel_for(vertex_t{0}, n, [&](vertex_t v) {
    MPX_EXPECTS(bfs.owner[v] != kInvalidVertex);
    result.settle[v] -= ws.shifts.start_round[bfs.owner[v]];
  });
  result.decomposition = Decomposition(bfs.owner, result.settle);
  result.decomposition.bfs_rounds = bfs.rounds;
  result.decomposition.pull_rounds = bfs.pull_rounds;
  result.decomposition.arcs_scanned = bfs.arcs_scanned;
  result.owner = std::move(bfs.owner);
  result.telemetry.assemble_seconds = phase.seconds();

  result.telemetry.engine = std::string(traversal_engine_name(req.engine));
  result.telemetry.rounds = bfs.rounds;
  result.telemetry.pull_rounds = bfs.pull_rounds;
  result.telemetry.arcs_scanned = bfs.arcs_scanned;
  result.telemetry.total_seconds = total.seconds();
  return result;
}

/// In-memory instantiation, with the concrete signature the registry's
/// function pointers require.
DecompositionResult run_mpx(const CsrGraph& g, const DecompositionRequest& req,
                            DecompositionWorkspace& ws,
                            const ShiftBasis* basis) {
  return run_mpx_impl(g, req, ws, basis);
}

DecompositionResult run_ball_growing(const CsrGraph& g,
                                     const DecompositionRequest& req,
                                     DecompositionWorkspace& /*ws*/,
                                     const ShiftBasis* /*basis*/) {
  const WallTimer total;
  DecompositionResult result;
  BallGrowingOptions opt;
  opt.beta = req.beta;
  opt.order = BallOrder::kRandom;
  opt.seed = req.seed;

  WallTimer phase;
  result.decomposition = ball_growing_decomposition(g, opt);
  result.telemetry.search_seconds = phase.seconds();

  phase.reset();
  owner_settle_from_decomposition(result.decomposition, result);
  result.telemetry.assemble_seconds = phase.seconds();
  result.telemetry.total_seconds = total.seconds();
  return result;
}

DecompositionResult run_bgkmpt(const CsrGraph& g,
                               const DecompositionRequest& req,
                               DecompositionWorkspace& /*ws*/,
                               const ShiftBasis* /*basis*/) {
  const WallTimer total;
  DecompositionResult result;
  BgkmptOptions opt;
  opt.beta = req.beta;
  opt.seed = req.seed;
  opt.engine = req.engine;

  WallTimer phase;
  BgkmptResult r = bgkmpt_decomposition(g, opt);
  result.telemetry.search_seconds = phase.seconds();

  phase.reset();
  result.decomposition = std::move(r.decomposition);
  owner_settle_from_decomposition(result.decomposition, result);
  result.telemetry.assemble_seconds = phase.seconds();

  result.telemetry.engine = std::string(traversal_engine_name(req.engine));
  result.telemetry.phases = r.phases;
  result.telemetry.rounds = r.total_rounds;
  result.telemetry.arcs_scanned = result.decomposition.arcs_scanned;
  result.telemetry.total_seconds = total.seconds();
  return result;
}

DecompositionResult run_mpx_weighted(const WeightedCsrGraph& g,
                                     const DecompositionRequest& req,
                                     DecompositionWorkspace& ws,
                                     const ShiftBasis* basis) {
  const WallTimer total;
  DecompositionResult result;
  const PartitionOptions opt = req.partition_options();

  WallTimer phase;
  shifts_for(g.num_vertices(), opt, ws, basis, result.telemetry);
  result.telemetry.shift_seconds = phase.seconds();

  phase.reset();
  result.weighted_decomposition =
      weighted_partition_with_shifts(g, ws.shifts);
  result.telemetry.search_seconds = phase.seconds();

  phase.reset();
  owner_radii_from_weighted(result.weighted_decomposition, result);
  result.telemetry.assemble_seconds = phase.seconds();
  result.telemetry.total_seconds = total.seconds();
  return result;
}

DecompositionResult run_mpx_bucketed(const WeightedCsrGraph& g,
                                     const DecompositionRequest& req,
                                     DecompositionWorkspace& ws,
                                     const ShiftBasis* basis) {
  const WallTimer total;
  DecompositionResult result;
  const PartitionOptions opt = req.partition_options();

  WallTimer phase;
  shifts_for(g.num_vertices(), opt, ws, basis, result.telemetry);
  result.telemetry.shift_seconds = phase.seconds();

  phase.reset();
  BucketedPartitionResult r =
      bucketed_weighted_partition_with_shifts(g, ws.shifts);
  result.telemetry.search_seconds = phase.seconds();

  phase.reset();
  result.weighted_decomposition = std::move(r.decomposition);
  owner_radii_from_weighted(result.weighted_decomposition, result);
  const vertex_t n = g.num_vertices();
  // Integer weights: the settle rounds are exactly the weighted distances.
  result.settle.resize(n);
  parallel_for(vertex_t{0}, n, [&](vertex_t v) {
    result.settle[v] = static_cast<std::uint32_t>(result.radii[v]);
  });
  result.telemetry.assemble_seconds = phase.seconds();

  result.telemetry.rounds = r.rounds;
  result.telemetry.total_seconds = total.seconds();
  return result;
}

/// One registry row: metadata plus the typed runners. Unweighted
/// algorithms run on a weighted graph via its topology; weighted
/// algorithms have no unweighted runner (decompose() throws).
struct AlgorithmEntry {
  AlgorithmInfo info;
  DecompositionResult (*run_unweighted)(const CsrGraph&,
                                        const DecompositionRequest&,
                                        DecompositionWorkspace&,
                                        const ShiftBasis*);
  DecompositionResult (*run_weighted)(const WeightedCsrGraph&,
                                      const DecompositionRequest&,
                                      DecompositionWorkspace&,
                                      const ShiftBasis*);
};

constexpr AlgorithmEntry kRegistry[] = {
    {{"mpx", false, true,
      "the paper's one-shot parallel partition (Theorem 1.2)"},
     &run_mpx, nullptr},
    {{"mpx-bucketed", true, true,
      "parallel weighted partition via Dial buckets (integer weights)"},
     nullptr, &run_mpx_bucketed},
    {{"ball-growing", false, false,
      "sequential ball-growing baseline (Awerbuch-style)"},
     &run_ball_growing, nullptr},
    {{"bgkmpt", false, false,
      "iterative parallel baseline of Blelloch et al. (SPAA 2011)"},
     &run_bgkmpt, nullptr},
    {{"mpx-weighted", true, true,
      "sequential shifted-Dijkstra weighted partition (Section 6)"},
     nullptr, &run_mpx_weighted},
};

const AlgorithmEntry* find_entry(std::string_view name) {
  for (const AlgorithmEntry& entry : kRegistry) {
    if (entry.info.name == name) return &entry;
  }
  return nullptr;
}

const AlgorithmEntry& entry_for(const DecompositionRequest& req) {
  validate_request(req);
  return *find_entry(req.algorithm);
}

void stamp(DecompositionResult& result, const DecompositionRequest& req) {
  result.telemetry.algorithm = req.algorithm;
  result.telemetry.threads = max_threads();
}

}  // namespace

namespace detail {

void owner_settle_from_decomposition(const Decomposition& dec,
                                     DecompositionResult& out) {
  const vertex_t n = dec.num_vertices();
  out.owner.resize(n);
  out.settle.resize(n);
  parallel_for(vertex_t{0}, n, [&](vertex_t v) {
    out.owner[v] = dec.center(dec.cluster_of(v));
    out.settle[v] = dec.dist_to_center(v);
  });
}

}  // namespace detail

std::span<const AlgorithmInfo> registered_algorithms() {
  static const std::vector<AlgorithmInfo> infos = [] {
    std::vector<AlgorithmInfo> v;
    for (const AlgorithmEntry& entry : kRegistry) v.push_back(entry.info);
    return v;
  }();
  return infos;
}

const AlgorithmInfo* find_algorithm(std::string_view name) {
  const AlgorithmEntry* entry = find_entry(name);
  return entry != nullptr ? &entry->info : nullptr;
}

void validate_request(const DecompositionRequest& req) {
  validate_partition_options(req.partition_options());
  if (find_entry(req.algorithm) == nullptr) {
    std::string names;
    for (const AlgorithmEntry& entry : kRegistry) {
      names += names.empty() ? "" : ", ";
      names += entry.info.name;
    }
    throw std::invalid_argument("mpx: unknown algorithm '" + req.algorithm +
                                "' (registered: " + names + ")");
  }
}

DecompositionResult decompose(const CsrGraph& g,
                              const DecompositionRequest& req,
                              DecompositionWorkspace* workspace,
                              const ShiftBasis* basis) {
  const AlgorithmEntry& entry = entry_for(req);
  if (entry.run_unweighted == nullptr) {
    throw std::invalid_argument("mpx: algorithm '" + req.algorithm +
                                "' needs edge weights; decompose it from a "
                                "WeightedCsrGraph");
  }
  DecompositionWorkspace local;
  DecompositionWorkspace& ws = workspace != nullptr ? *workspace : local;
  DecompositionResult result = entry.run_unweighted(
      g, req, ws, entry.info.uses_shifts ? basis : nullptr);
  stamp(result, req);
  return result;
}

DecompositionResult decompose(const WeightedCsrGraph& g,
                              const DecompositionRequest& req,
                              DecompositionWorkspace* workspace,
                              const ShiftBasis* basis) {
  const AlgorithmEntry& entry = entry_for(req);
  DecompositionWorkspace local;
  DecompositionWorkspace& ws = workspace != nullptr ? *workspace : local;
  const ShiftBasis* use_basis = entry.info.uses_shifts ? basis : nullptr;
  DecompositionResult result =
      entry.run_weighted != nullptr
          ? entry.run_weighted(g, req, ws, use_basis)
          : entry.run_unweighted(g.topology(), req, ws, use_basis);
  stamp(result, req);
  return result;
}

DecompositionResult decompose(const storage::PagedGraph& g,
                              const DecompositionRequest& req,
                              DecompositionWorkspace* workspace,
                              const ShiftBasis* basis) {
  validate_request(req);
  if (req.algorithm != "mpx") {
    throw std::invalid_argument(
        "mpx: algorithm '" + req.algorithm +
        "' is not served out-of-core; only \"mpx\" runs on a paged graph");
  }
  DecompositionWorkspace local;
  DecompositionWorkspace& ws = workspace != nullptr ? *workspace : local;
  const storage::ShardedBlockCache::Stats before = g.cache().stats();
  DecompositionResult result = run_mpx_impl(g, req, ws, basis);
  const storage::ShardedBlockCache::Stats after = g.cache().stats();
  result.telemetry.cache_hits = after.hits - before.hits;
  result.telemetry.cache_misses = after.misses - before.misses;
  result.telemetry.cache_evictions = after.evictions - before.evictions;
  stamp(result, req);
  return result;
}

}  // namespace mpx
