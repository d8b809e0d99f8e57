#include "core/session.hpp"

#include <bit>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "apps/distance_oracle.hpp"
#include "core/decomposition_io.hpp"
#include "graph/snapshot.hpp"
#include "graph/snapshot_blocks.hpp"
#include "storage/paged_graph.hpp"
#include "support/assert.hpp"

namespace mpx {

void record_run_telemetry(obs::MetricsRegistry& registry,
                          const RunTelemetry& telemetry) {
  registry.counter("decomp.computes").add(1);
  registry.counter("decomp.rounds").add(telemetry.rounds);
  registry.counter("decomp.arcs_scanned").add(telemetry.arcs_scanned);
  registry.histogram("decomp.shift_draw").record_seconds(
      telemetry.shift_draw_seconds);
  registry.histogram("decomp.shift_rank").record_seconds(
      telemetry.shift_rank_seconds);
  registry.histogram("decomp.shift").record_seconds(telemetry.shift_seconds);
  registry.histogram("decomp.search").record_seconds(
      telemetry.search_seconds);
  registry.histogram("decomp.assemble").record_seconds(
      telemetry.assemble_seconds);
  registry.histogram("decomp.total").record_seconds(telemetry.total_seconds);
}

namespace {

/// A view of `g` whose keepalive owns it, so copies (one per store entry)
/// share the arrays instead of deep-copying them.
CsrGraph shared_view(CsrGraph g) {
  auto owner = std::make_shared<const CsrGraph>(std::move(g));
  return CsrGraph(owner->offsets(), owner->targets(), owner,
                  CsrGraph::Trusted{});
}

WeightedCsrGraph shared_view(WeightedCsrGraph g) {
  auto owner = std::make_shared<const WeightedCsrGraph>(std::move(g));
  const CsrGraph& topology = owner->topology();
  return WeightedCsrGraph(
      CsrGraph(topology.offsets(), topology.targets(), owner,
               CsrGraph::Trusted{}),
      owner->weights(), owner, CsrGraph::Trusted{});
}

}  // namespace

// --- MaterializedDecomposition --------------------------------------------

MaterializedDecomposition::MaterializedDecomposition(const CsrGraph& topology,
                                                     DecompositionResult result)
    : result_(std::move(result)), graph_(topology) {}

MaterializedDecomposition::MaterializedDecomposition(
    const storage::PagedGraph& topology, DecompositionResult result)
    : result_(std::move(result)), paged_(topology.shared_from_this()) {}

MaterializedDecomposition::~MaterializedDecomposition() = default;

vertex_t MaterializedDecomposition::owner_of(vertex_t v) const {
  MPX_EXPECTS(v < result_.owner.size());
  return result_.owner[v];
}

cluster_t MaterializedDecomposition::cluster_of(vertex_t v) const {
  MPX_EXPECTS(v < result_.owner.size());
  return result_.cluster_of(v);
}

cluster_t MaterializedDecomposition::num_clusters() const {
  return result_.num_clusters();
}

std::span<const Edge> MaterializedDecomposition::boundary_arcs() const {
  std::call_once(boundary_once_, [this] {
    boundary_ = paged_ != nullptr ? compute_boundary_edges(*paged_, result_)
                                  : compute_boundary_edges(graph_, result_);
  });
  return boundary_;
}

std::uint32_t MaterializedDecomposition::estimate_distance(vertex_t u,
                                                           vertex_t v) const {
  MPX_EXPECTS(u < result_.owner.size() && v < result_.owner.size());
  if (result_.weighted()) {
    throw std::invalid_argument(
        "mpx: estimate_distance serves unweighted algorithms; '" +
        result_.telemetry.algorithm + "' produces real-valued radii");
  }
  if (!distance_oracle_built()) {
    std::call_once(oracle_once_, [this] {
      oracle_ = paged_ != nullptr ? std::make_unique<DistanceOracle>(
                                        *paged_, result_.decomposition)
                                  : std::make_unique<DistanceOracle>(
                                        graph_, result_.decomposition);
      oracle_built_.store(true, std::memory_order_release);
    });
  }
  return oracle_->estimate(u, v);
}

// --- SharedResultStore ----------------------------------------------------

SharedResultStore::SharedResultStore(CsrGraph g)
    : graph_(shared_view(std::move(g))), weighted_(false) {}

SharedResultStore::SharedResultStore(WeightedCsrGraph g)
    : wgraph_(shared_view(std::move(g))), weighted_(true) {}

SharedResultStore::SharedResultStore(std::shared_ptr<storage::PagedGraph> g)
    : pgraph_(std::move(g)), weighted_(false) {
  MPX_EXPECTS(pgraph_ != nullptr);
}

std::unique_ptr<SharedResultStore> SharedResultStore::open_snapshot(
    const std::string& path, const SessionConfig& config) {
  const io::SnapshotInfo info = io::read_snapshot_info(path);
  // Paged mode: a cold unweighted snapshot that would not fit the budget
  // materialized. Weighted cold files materialize regardless (the
  // weighted algorithms run on in-memory graphs only — SessionConfig).
  if (config.memory_budget_bytes > 0 && info.cold() && !info.weighted() &&
      info.resident_bytes_estimate() > config.memory_budget_bytes) {
    auto reader = std::make_shared<const io::SnapshotBlockReader>(path);
    return std::make_unique<SharedResultStore>(
        std::make_shared<storage::PagedGraph>(std::move(reader),
                                              config.memory_budget_bytes));
  }
  if (info.weighted()) {
    return std::make_unique<SharedResultStore>(io::map_weighted_snapshot(path));
  }
  return std::make_unique<SharedResultStore>(io::map_snapshot(path));
}

SharedResultStore::~SharedResultStore() = default;

const CsrGraph& SharedResultStore::topology() const {
  if (paged()) {
    throw std::logic_error(
        "mpx: topology() is unavailable on a paged store — the graph is "
        "never fully resident; use num_vertices()/num_edges() and the "
        "query surface");
  }
  return weighted_ ? wgraph_.topology() : graph_;
}

vertex_t SharedResultStore::num_vertices() const {
  return paged() ? pgraph_->num_vertices() : topology().num_vertices();
}

edge_t SharedResultStore::num_edges() const {
  return paged() ? pgraph_->num_edges() : topology().num_edges();
}

storage::ShardedBlockCache::Stats SharedResultStore::cache_stats() const {
  return paged() ? pgraph_->cache().stats()
                 : storage::ShardedBlockCache::Stats{};
}

SharedResultStore::Key SharedResultStore::key_of(
    const DecompositionRequest& req) {
  return Key(req.algorithm, std::bit_cast<std::uint64_t>(req.beta), req.seed,
             static_cast<int>(req.tie_break),
             static_cast<int>(req.distribution),
             static_cast<int>(req.engine));
}

std::shared_ptr<const MaterializedDecomposition> SharedResultStore::make_entry(
    DecompositionResult result) const {
  // Copying graph_ (or wgraph_'s topology) copies a view: the entry
  // shares the arrays, and keeps them alive past the store.
  if (paged()) {
    return std::make_shared<const MaterializedDecomposition>(
        *pgraph_, std::move(result));
  }
  return std::make_shared<const MaterializedDecomposition>(topology(),
                                                           std::move(result));
}

SharedResultStore::Acquired SharedResultStore::acquire(
    const DecompositionRequest& req) {
  validate_request(req);
  return acquire_validated(req, nullptr);
}

SharedResultStore::Acquired SharedResultStore::acquire_validated(
    const DecompositionRequest& req, const ShiftBasis* basis) {
  const Key key = key_of(req);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      const auto it = entries_.find(key);
      if (it != entries_.end()) return {it->second, /*from_cache=*/true};
      if (inflight_.insert(key).second) break;  // this thread computes
      // Another thread is computing this key: wait for it to publish (or
      // fail), then re-check. A failed compute wakes us with the key
      // absent from both maps, and the loop claims it.
      cv_.wait(lock);
    }
  }
  std::shared_ptr<const MaterializedDecomposition> built;
  try {
    std::lock_guard<std::mutex> compute(compute_mutex_);
    built = make_entry(
        paged()     ? decompose(*pgraph_, req, &workspace_, basis)
        : weighted_ ? decompose(wgraph_, req, &workspace_, basis)
                    : decompose(graph_, req, &workspace_, basis));
    if (metrics_ != nullptr) {
      record_run_telemetry(*metrics_, built->result().telemetry);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    cv_.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.emplace(key, built);
    inflight_.erase(key);
    ++computes_;
  }
  cv_.notify_all();
  return {std::move(built), /*from_cache=*/false};
}

std::vector<SharedResultStore::Acquired> SharedResultStore::acquire_batch(
    const DecompositionRequest& base, std::span<const double> betas) {
  // Validate every beta up front so a bad one cannot abandon the batch
  // half-executed.
  DecompositionRequest req = base;
  bool any_cold = false;
  for (const double beta : betas) {
    req.beta = beta;
    validate_request(req);
    any_cold = any_cold || cached(req) == nullptr;
  }
  // One basis for the length of the batch, only when something computes.
  // Basis-derived shifts equal the per-run draws by construction, so a
  // beta computed with or without it yields the same bytes.
  const AlgorithmInfo* info = find_algorithm(base.algorithm);
  std::optional<ShiftBasis> basis;
  if (any_cold && info != nullptr && info->uses_shifts) {
    basis = make_shift_basis(num_vertices(), base.partition_options());
  }
  std::vector<Acquired> acquired;
  acquired.reserve(betas.size());
  for (const double beta : betas) {
    req.beta = beta;
    acquired.push_back(
        acquire_validated(req, basis.has_value() ? &*basis : nullptr));
  }
  return acquired;
}

std::shared_ptr<const MaterializedDecomposition> SharedResultStore::cached(
    const DecompositionRequest& req) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key_of(req));
  return it != entries_.end() ? it->second : nullptr;
}

bool SharedResultStore::load_cached(const DecompositionRequest& req,
                                    const std::string& path) {
  validate_request(req);
  // Mirror of save_cached: the text format carries no radii, so a
  // weighted request can never be restored shape-consistently from it.
  const AlgorithmInfo* info = find_algorithm(req.algorithm);
  if (info != nullptr && info->needs_weights) {
    throw std::invalid_argument(
        "mpx: load_cached supports unweighted algorithms; '" + req.algorithm +
        "' produces real-valued radii");
  }
  // An already-resident entry wins: results are deterministic in the
  // request, so the computed entry equals anything a valid file holds.
  if (cached(req) != nullptr) return true;
  {
    std::ifstream probe(path);
    if (!probe) return false;
  }
  io::LoadedDecomposition loaded = io::load_decomposition_full(path);
  if (loaded.has_telemetry && loaded.telemetry.algorithm != req.algorithm) {
    throw std::runtime_error(
        "mpx: cached decomposition in " + path + " was produced by '" +
        loaded.telemetry.algorithm + "', not the requested '" +
        req.algorithm + "'");
  }
  if (loaded.decomposition.num_vertices() != num_vertices()) {
    throw std::runtime_error(
        "mpx: cached decomposition in " + path + " has " +
        std::to_string(loaded.decomposition.num_vertices()) +
        " vertices; this session's graph has " +
        std::to_string(num_vertices()));
  }
  DecompositionResult result;
  result.decomposition = std::move(loaded.decomposition);
  detail::owner_settle_from_decomposition(result.decomposition, result);
  if (loaded.has_telemetry) {
    result.telemetry = std::move(loaded.telemetry);
  } else {
    result.telemetry.algorithm = req.algorithm;
  }
  std::shared_ptr<const MaterializedDecomposition> built =
      make_entry(std::move(result));
  std::lock_guard<std::mutex> lock(mutex_);
  // A concurrent load or compute may have published first; the resident
  // entry wins.
  entries_.emplace(key_of(req), std::move(built));
  return true;
}

std::size_t SharedResultStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t SharedResultStore::computes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return computes_;
}

void SharedResultStore::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

// --- DecompositionSession -------------------------------------------------

DecompositionSession::DecompositionSession(CsrGraph g)
    : store_(std::make_unique<SharedResultStore>(std::move(g))) {}

DecompositionSession::DecompositionSession(WeightedCsrGraph g)
    : store_(std::make_unique<SharedResultStore>(std::move(g))) {}

DecompositionSession::DecompositionSession(
    std::shared_ptr<storage::PagedGraph> g)
    : store_(std::make_unique<SharedResultStore>(std::move(g))) {}

DecompositionSession::DecompositionSession(
    std::unique_ptr<SharedResultStore> store)
    : store_(std::move(store)) {}

DecompositionSession DecompositionSession::open_snapshot(
    const std::string& path) {
  return open_snapshot(path, SessionConfig{});
}

DecompositionSession DecompositionSession::open_snapshot(
    const std::string& path, const SessionConfig& config) {
  return DecompositionSession(SharedResultStore::open_snapshot(path, config));
}

const MaterializedDecomposition& DecompositionSession::entry(
    const DecompositionRequest& req) {
  return *store_->acquire(req).entry;
}

const DecompositionResult& DecompositionSession::run(
    const DecompositionRequest& req) {
  return entry(req).result();
}

std::vector<const DecompositionResult*> DecompositionSession::run_batch(
    const DecompositionRequest& base, std::span<const double> betas) {
  std::vector<const DecompositionResult*> results;
  results.reserve(betas.size());
  for (const SharedResultStore::Acquired& a :
       store_->acquire_batch(base, betas)) {
    results.push_back(&a.entry->result());
  }
  return results;
}

const DecompositionResult* DecompositionSession::cached(
    const DecompositionRequest& req) const {
  const auto entry = store_->cached(req);
  return entry != nullptr ? &entry->result() : nullptr;
}

vertex_t DecompositionSession::owner_of(vertex_t v,
                                        const DecompositionRequest& req) {
  return entry(req).owner_of(v);
}

cluster_t DecompositionSession::cluster_of(vertex_t v,
                                           const DecompositionRequest& req) {
  return entry(req).cluster_of(v);
}

cluster_t DecompositionSession::num_clusters(const DecompositionRequest& req) {
  return entry(req).num_clusters();
}

std::span<const Edge> DecompositionSession::boundary_arcs(
    const DecompositionRequest& req) {
  return entry(req).boundary_arcs();
}

std::uint32_t DecompositionSession::estimate_distance(
    vertex_t u, vertex_t v, const DecompositionRequest& req) {
  return entry(req).estimate_distance(u, v);
}

void DecompositionSession::save_cached(const DecompositionRequest& req,
                                       const std::string& path) {
  const DecompositionResult& result = run(req);
  if (result.weighted()) {
    throw std::invalid_argument(
        "mpx: save_cached supports unweighted algorithms; '" + req.algorithm +
        "' produces real-valued radii");
  }
  io::save_decomposition(path, result.decomposition, result.telemetry);
}

}  // namespace mpx
