// Graph-generic implementation of the delayed multi-source BFS (the
// machinery that used to live in multi_source_bfs.cpp's anonymous
// namespace). Templated on the graph type so the same claim semantics run
// over an in-memory CsrGraph and an out-of-core storage::PagedGraph; the
// engine-facing entry points stay in multi_source_bfs.hpp (CsrGraph) and
// core/decomposer.cpp (paged). Determinism: every cross-thread race is an
// atomic min over a packed (rank, center) word, so owner/settle arrays are
// byte-identical across thread counts and graph backends that decode
// identical adjacency.
#pragma once

#include <algorithm>
#include <atomic>
#include <limits>
#include <span>
#include <vector>

#include "bfs/multi_source_bfs.hpp"
#include "bfs/traversal.hpp"
#include "parallel/atomics.hpp"
#include "parallel/bucket_rank.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace mpx::detail {

// One 64-bit claim word per vertex carries the whole search state:
//   * unclaimed: all ones;
//   * live (offered this round): the top bit, then the 32-bit rank, then
//     the 31-bit center — so a plain integer min picks the smallest rank;
//   * settled: top bit clear, then the settle round, then the center.
// Every settled word is below every live word, so a push offer never
// lowers a settled vertex and never mistakes it for a new candidate, and
// the owner/settle arrays are read off the settled words after the search.
// Centers are vertex ids, so n must stay below 2^31.
inline constexpr std::uint64_t kMsBfsUnclaimed =
    std::numeric_limits<std::uint64_t>::max();
inline constexpr std::uint64_t kMsBfsLive = std::uint64_t{1} << 63;
inline constexpr unsigned kMsBfsCenterBits = 31;
inline constexpr std::uint64_t kMsBfsCenterMask =
    (std::uint64_t{1} << kMsBfsCenterBits) - 1;

/// The live word of an offer from `center`'s search.
constexpr std::uint64_t msbfs_priority_word(std::uint32_t rank,
                                            vertex_t center) noexcept {
  return kMsBfsLive |
         (static_cast<std::uint64_t>(rank) << kMsBfsCenterBits) |
         static_cast<std::uint64_t>(center);
}

/// The word of a vertex settled at round t by `center`'s search.
constexpr std::uint64_t msbfs_settled_word(std::uint32_t t,
                                           vertex_t center) noexcept {
  return (static_cast<std::uint64_t>(t) << kMsBfsCenterBits) |
         static_cast<std::uint64_t>(center);
}

/// Center id of a live or settled word.
constexpr vertex_t msbfs_center_of(std::uint64_t word) noexcept {
  return static_cast<vertex_t>(word & kMsBfsCenterMask);
}

/// Settle round of a settled word; no round matches a live or unclaimed
/// word (their top bit survives the shift).
constexpr std::uint64_t msbfs_round_of(std::uint64_t word) noexcept {
  return word >> kMsBfsCenterBits;
}

/// Activation schedule: centers grouped by start round, ids ascending
/// within a round, as one flat array plus bucket end offsets. Built by
/// bucket_scatter (parallel/bucket_rank.hpp), the stable count-and-scatter
/// the shift rank also uses; start rounds are exact integer keys, so the
/// rank's finishing pass is not needed. Views the storage held by a
/// MultiSourceBfsWorkspace so repeated runs reuse it.
struct ActivationBuckets {
  std::span<const vertex_t> centers;      // grouped by round
  std::span<const std::uint32_t> ends;    // ends[t]: end of round t's group
  std::uint32_t max_round = 0;

  [[nodiscard]] bool empty() const { return ends.empty(); }

  [[nodiscard]] std::span<const vertex_t> bucket(std::uint32_t t) const {
    if (empty() || t > max_round) return {};
    const std::uint32_t lo = t == 0 ? 0 : ends[t - 1];
    return {centers.data() + lo, ends[t] - lo};
  }
};

inline ActivationBuckets build_buckets(
    std::span<const std::uint32_t> start_round, MultiSourceBfsWorkspace& ws) {
  const std::size_t n = start_round.size();
  // 1 + the latest start round, 0 when no vertex self-activates.
  const std::uint32_t rounds = parallel_max<std::uint32_t>(
      std::size_t{0}, n, std::uint32_t{0}, [&](std::size_t v) {
        return start_round[v] == kNoStart ? 0u : start_round[v] + 1;
      });
  if (rounds == 0) return {};
  // Bucket `rounds` collects the kNoStart vertices, which never activate.
  const auto bucket_of = [&](std::uint32_t v) {
    return start_round[v] == kNoStart ? rounds : start_round[v];
  };
  ws.bucket_centers.resize(n);
  bucket_scatter(
      n, static_cast<std::size_t>(rounds) + 1, bucket_of,
      [&](std::uint32_t v, std::uint32_t* cursors) {
        ws.bucket_centers[cursors[bucket_of(v)]++] = v;
      },
      ws.bucket_ends, ws.bucket_cursors);
  ActivationBuckets b;
  b.centers = ws.bucket_centers;
  b.ends = std::span<const std::uint32_t>(ws.bucket_ends).first(rounds);
  b.max_round = rounds - 1;
  return b;
}

/// The claim semantics of Algorithm 1 for the traversal engine: a claim
/// word per vertex, lowered by atomic min from the push path and by a
/// local min from the pull path. Every vertex offered a claim in round t
/// settles in round t, so claim words never carry live state across
/// rounds — which is exactly why push and pull resolve identical winners.
/// One load of a neighbor's word tells a push whether it is settled,
/// already a candidate this round, or new; the thread whose offer replaces
/// kMsBfsUnclaimed is the one that emits the candidate.
///
/// Each expand()/pull() iterates exactly one neighbors() span at a time
/// per calling thread, which is the span-lifetime contract PagedGraph
/// guarantees (storage/paged_graph.hpp "Span lifetime").
template <typename Graph>
struct DelayedBfsVisitor {
  const Graph& g;
  std::span<const std::uint32_t> rank;
  ActivationBuckets buckets;
  std::vector<std::uint64_t>& claim;  // workspace-owned, reset per run

  DelayedBfsVisitor(const Graph& graph,
                    std::span<const std::uint32_t> start_round,
                    std::span<const std::uint32_t> rank_in,
                    MultiSourceBfsWorkspace& ws)
      : g(graph),
        rank(rank_in),
        buckets(build_buckets(start_round, ws)),
        claim(ws.claim) {
    claim.resize(g.num_vertices());
    parallel_for(std::size_t{0}, claim.size(),
                 [&](std::size_t v) { claim[v] = kMsBfsUnclaimed; });
  }

  [[nodiscard]] std::span<const vertex_t> activations(std::uint32_t t) const {
    return buckets.bucket(t);
  }

  [[nodiscard]] bool activations_done(std::uint32_t t) const {
    return buckets.empty() || t > buckets.max_round;
  }

  [[nodiscard]] bool settled(vertex_t v) const {
    return atomic_load(claim[v]) < kMsBfsLive;
  }

  /// Lower `slot` to `word`; true iff it was unclaimed before. Shared
  /// when other threads may offer concurrently.
  template <bool Shared>
  static bool offer(std::uint64_t& slot, std::uint64_t word) {
    if constexpr (Shared) {
      std::atomic_ref<std::uint64_t> ref(slot);
      std::uint64_t current = ref.load(std::memory_order_relaxed);
      while (word < current) {
        if (ref.compare_exchange_weak(current, word,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
          return current == kMsBfsUnclaimed;
        }
      }
      return false;
    } else {
      const std::uint64_t current = slot;
      if (!(word < current)) return false;
      slot = word;
      return current == kMsBfsUnclaimed;
    }
  }

  /// The live word of the search that holds `word` (live or settled).
  [[nodiscard]] std::uint64_t offer_word(std::uint64_t word) const {
    const vertex_t c = msbfs_center_of(word);
    return msbfs_priority_word(rank[c], c);
  }

  template <bool Shared>
  bool offer_self(vertex_t c) {
    // Most late activations find their vertex settled; skip the rank read.
    if (settled(c)) return false;
    return offer<Shared>(claim[c], msbfs_priority_word(rank[c], c));
  }

  template <bool Shared, typename Emit>
  void expand(vertex_t u, Emit&& emit) {
    const std::uint64_t word = offer_word(atomic_load(claim[u]));
    for (const vertex_t v : g.neighbors(u)) {
      if (offer<Shared>(claim[v], word)) emit(v);
    }
  }

  bool pull(vertex_t v, std::uint32_t t) {
    // Start from any self-activation claim recorded this round, then take
    // the min over neighbors settled last round. Only this iteration
    // writes v's word; neighbors settling concurrently carry round t.
    std::uint64_t word = claim[v];
    for (const vertex_t u : g.neighbors(v)) {
      const std::uint64_t neighbor = atomic_load(claim[u]);
      if (msbfs_round_of(neighbor) == t - 1) {
        word = std::min(word, offer_word(neighbor));
      }
    }
    if (word == kMsBfsUnclaimed) return false;
    atomic_store(claim[v], msbfs_settled_word(t, msbfs_center_of(word)));
    return true;
  }

  void settle(vertex_t v, std::uint32_t t) {
    claim[v] = msbfs_settled_word(t, msbfs_center_of(claim[v]));
  }

  /// Read owner and settle round off the settled words.
  void finish(MultiSourceBfsResult& out) const {
    const vertex_t n = g.num_vertices();
    out.owner.resize(n);
    out.settle_round.resize(n);
    parallel_for(vertex_t{0}, n, [&](vertex_t v) {
      const std::uint64_t word = claim[v];
      const bool reached = word < kMsBfsLive;
      out.owner[v] = reached ? msbfs_center_of(word) : kInvalidVertex;
      out.settle_round[v] = reached
                                ? static_cast<std::uint32_t>(msbfs_round_of(word))
                                : kInfDist;
    });
  }
};

/// Graph-generic body of delayed_multi_source_bfs (see the CsrGraph entry
/// point in multi_source_bfs.hpp for semantics and preconditions).
template <typename Graph>
[[nodiscard]] MultiSourceBfsResult delayed_multi_source_bfs_impl(
    const Graph& g, std::span<const std::uint32_t> start_round,
    std::span<const std::uint32_t> rank, std::uint32_t max_rounds,
    TraversalEngine engine, MultiSourceBfsWorkspace* workspace,
    RoundLog* log = nullptr) {
  const vertex_t n = g.num_vertices();
  MPX_EXPECTS(start_round.size() == n);
  MPX_EXPECTS(rank.size() == n);

  MultiSourceBfsWorkspace local;
  MultiSourceBfsWorkspace& ws = workspace != nullptr ? *workspace : local;

  MPX_EXPECTS(n <= kMsBfsCenterMask);

  DelayedBfsVisitor<Graph> vis(g, start_round, rank, ws);
  TraversalParams params;
  params.engine = engine;
  params.max_rounds = max_rounds;
  // Priority-word pulls must scan every neighbor (no early exit as in
  // plain BFS), so bottom-up pays only where offers concentrate on
  // high-degree vertices: a settled hub is then claimed by one scan
  // instead of issuing thousands of atomic offers. Gate on degree skew —
  // near-regular meshes never profit from pulling, skewed graphs do
  // (measured: auto ~1.5x push on rmat(20), parity on grid2d(3000)).
  // Degrees come from the resident offsets on every backend, so the gate
  // itself costs no block I/O on paged graphs (where pull is disabled
  // anyway — see kGraphSupportsPull).
  if (engine == TraversalEngine::kAuto && n > 0) {
    const vertex_t max_degree = parallel_max<vertex_t>(
        vertex_t{0}, n, vertex_t{0}, [&](vertex_t v) { return g.degree(v); });
    const double avg_degree =
        static_cast<double>(g.num_arcs()) / static_cast<double>(n);
    const bool skewed =
        avg_degree > 0.0 && static_cast<double>(max_degree) >= 8.0 * avg_degree;
    params.alpha_div = skewed ? 4 : 1;
  }
  const TraversalStats stats =
      run_traversal(g, vis, params, &ws.traversal, log);

  MultiSourceBfsResult result;
  vis.finish(result);
  result.rounds = stats.rounds;
  result.pull_rounds = stats.pull_rounds;
  result.arcs_scanned = stats.arcs_scanned;
  return result;
}

}  // namespace mpx::detail
