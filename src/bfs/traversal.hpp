// The shared traversal engine: one direction-optimizing, level-synchronous
// round loop behind every search in the library (delayed multi-source BFS,
// parallel BFS).
//
// Each round the engine either
//   * pushes — frontier vertices offer claims to their neighbors
//     (top-down; work proportional to the frontier's out-degree, claims
//     resolved by atomic operations), or
//   * pulls  — every still-unsettled vertex scans its own neighbors for
//     frontier members and resolves its claim locally, writing the result
//     without atomics (bottom-up; work proportional to the unsettled
//     volume, with candidate bits written a whole bitmap word at a time).
// The auto engine switches with the classic Beamer et al. heuristic: pull
// while the frontier's out-degree exceeds a fraction of the unexplored
// arcs (or the frontier itself a fraction of the vertices), push
// otherwise.
//
// A round is two passes and no serial step:
//   1. the frontier pass — self-activations and the expansion of the
//      frontier (push), or the sweep of the unsettled set (pull), mark the
//      round's newly settled vertices in the next Frontier. Each thread
//      expands long contiguous runs of the ascending frontier, so threads
//      mostly write claims in disjoint parts of the graph;
//   2. the candidate pass — the team packs those marks into the next
//      frontier, ascending (Frontier's count/place/extract steps), and each
//      thread settles the slice it packed and sums its degrees.
// Large rounds run both passes in one OpenMP region; rounds far below the
// fork/join break-even, and every round at one thread, run them on the
// calling thread, where claims and marks need no atomics (the visitor and
// Frontier::mark take a Shared flag). High-diameter graphs (hundreds of
// tiny rounds) depend on that. No pass allocates once the workspace has
// seen the graph, and a push round never touches the unsettled set: the
// engine rebuilds it from the visitor's settled() only before a pull
// round that follows a push round.
//
// The engine choice never changes the result: push and pull compute the
// same claim minimum for every vertex, so owner/settle arrays are
// byte-identical across kPush, kPull, and kAuto (asserted by
// tests/test_frontier.cpp on every fixture family) and across thread
// counts (tests/test_parallel_threads.cpp).
//
// A visitor supplies the problem-specific claim semantics. Shared is true
// when other threads may offer claims concurrently:
//
//   struct Visitor {
//     // Vertices that self-activate at round t (each at most once per
//     // round, in any order).
//     std::span<const vertex_t> activations(std::uint32_t t) const;
//     // True when no activation will occur at any round >= t.
//     bool activations_done(std::uint32_t t) const;
//     // True once v has been permanently settled.
//     bool settled(vertex_t v) const;
//     // Record v's self-activation claim; true when it made v a candidate
//     // this round. Every new candidate must be reported at least once;
//     // the engine drops repeats, but each costs an atomic mark.
//     template <bool Shared> bool offer_self(vertex_t v);
//     // Push: scan u's neighbors, record claims, emit(v) for each neighbor
//     // the offer made a candidate (same rule as offer_self's return).
//     template <bool Shared, typename Emit>
//     void expand(vertex_t u, Emit&& emit);
//     // Pull: resolve v's claim from its neighbors settled at round t-1
//     // plus any recorded self-activation claim; settle v inline and
//     // return true iff v settled. Only called with t >= 1 and v
//     // unsettled; v is owned exclusively by the calling iteration.
//     bool pull(vertex_t v, std::uint32_t t);
//     // Finalize a push-round candidate at round t (exclusive access).
//     void settle(vertex_t v, std::uint32_t t);
//   };
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bfs/frontier.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_env.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace mpx {

/// Which per-round direction the traversal uses.
enum class TraversalEngine {
  kAuto,  ///< direction-optimizing: heuristic push/pull per round (default)
  kPush,  ///< always top-down (the classic sparse-frontier path)
  kPull,  ///< always bottom-up full sweeps (reference / dense workloads)
};

/// Whether a graph type supports the bottom-up (pull) direction.
///
/// Defaults to true; a graph opts out by declaring
/// `static constexpr bool kSupportsPullTraversal = false;`
/// (storage::PagedGraph does: a pull round re-scans the adjacency of
/// every unsettled vertex, which under a bounded block-cache budget
/// re-decodes most of the file per sweep). On such graphs the engine
/// silently runs kPull and kAuto as push — results are identical either
/// way (see the engine-identity note above), only the direction choice
/// is constrained.
template <typename Graph>
inline constexpr bool kGraphSupportsPull = [] {
  if constexpr (requires { Graph::kSupportsPullTraversal; }) {
    return static_cast<bool>(Graph::kSupportsPullTraversal);
  } else {
    return true;
  }
}();

/// Human-readable engine name ("auto", "push", "pull").
[[nodiscard]] std::string_view traversal_engine_name(TraversalEngine engine);

/// Parse an engine name; returns false on unknown input.
bool parse_traversal_engine(std::string_view name, TraversalEngine& out);

struct TraversalParams {
  TraversalEngine engine = TraversalEngine::kAuto;
  /// Rounds at and beyond this index are not executed (kInfDist = run to
  /// quiescence).
  std::uint32_t max_rounds = kInfDist;
  /// Beamer alpha: switch to pull when frontier_degree * alpha_div >
  /// unexplored arcs. Searches whose pull resolution can stop at the first
  /// frontier neighbor (plain BFS) tolerate large values; claim semantics
  /// that must scan every neighbor (priority minima) want small ones.
  edge_t alpha_div = 15;
  /// Hysteresis: once pulling, keep pulling while frontier_size * beta_div
  /// exceeds the number of vertices.
  edge_t beta_div = 20;
};

struct TraversalStats {
  /// Rounds executed (activation rounds and the final empty expansion
  /// included — the depth proxy).
  std::uint32_t rounds = 0;
  /// How many of those rounds ran bottom-up.
  std::uint32_t pull_rounds = 0;
  /// Sum of deg(v) over expanded frontier vertices — the O(m) work proxy.
  /// Identical across engines: a pull round charges the degrees the push
  /// round it replaced would have scanned.
  edge_t arcs_scanned = 0;
};

/// One round of a traversal, as recorded in a RoundLog.
struct TraversalRound {
  std::uint32_t round = 0;
  /// True when the round ran bottom-up.
  bool pull = false;
  /// Self-activations offered this round.
  std::size_t activations = 0;
  /// Vertices settled last round: the frontier a push round expands.
  std::size_t frontier = 0;
  /// Vertices settled this round: the next round's frontier.
  std::size_t settled = 0;
  /// Arcs charged to this round (the frontier's out-degree).
  edge_t arcs = 0;
  /// Seconds in the round's first pass: activation and expansion (push)
  /// or the unsettled sweep (pull).
  double expand_seconds = 0.0;
  /// Seconds in the second pass: packing the settled vertices into the
  /// next frontier and, for a push, settling them.
  double settle_seconds = 0.0;
};

/// Bounded sink for per-round records. run_traversal() appends one record
/// per executed round; past kCapacity records it only counts the rest.
/// Recording costs two clock reads per round and nothing when no log is
/// passed.
class RoundLog {
 public:
  static constexpr std::size_t kCapacity = 4096;

  void record(const TraversalRound& r) {
    if (records_.size() < kCapacity) {
      records_.push_back(r);
    } else {
      ++dropped_;
    }
  }

  [[nodiscard]] std::span<const TraversalRound> rounds() const {
    return records_;
  }
  /// Rounds executed past the capacity (not recorded).
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

 private:
  std::size_t dropped_ = 0;
  std::vector<TraversalRound> records_;
};

namespace detail {

/// The calling thread alone: a round's passes run in order, unforked.
struct SerialTeam {
  /// No other thread touches shared state during the round.
  static constexpr bool kShared = false;
  [[nodiscard]] std::size_t rank() const { return 0; }
  [[nodiscard]] std::size_t size() const { return 1; }
  void barrier() const {}
  template <typename F>
  void for_each(std::size_t count, F&& f) const {
    for (std::size_t i = 0; i < count; ++i) f(i);
  }
  template <typename F>
  void for_each_nowait(std::size_t count, F&& f) const {
    for_each(count, f);
  }
  template <typename F>
  void for_each_dynamic(std::size_t count, std::size_t /*chunk*/,
                        F&& f) const {
    for_each(count, f);
  }
};

#if defined(_OPENMP)
/// The enclosing OpenMP team. Its loops are worksharing loops of that
/// team and end in a barrier unless named nowait.
struct OmpTeam {
  static constexpr bool kShared = true;
  std::size_t id = static_cast<std::size_t>(omp_get_thread_num());
  std::size_t count = static_cast<std::size_t>(omp_get_num_threads());

  [[nodiscard]] std::size_t rank() const { return id; }
  [[nodiscard]] std::size_t size() const { return count; }
  void barrier() const {
#pragma omp barrier
  }
  template <typename F>
  void for_each(std::size_t n, F&& f) const {
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      f(static_cast<std::size_t>(i));
    }
  }
  template <typename F>
  void for_each_nowait(std::size_t n, F&& f) const {
#pragma omp for schedule(static) nowait
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      f(static_cast<std::size_t>(i));
    }
  }
  template <typename F>
  void for_each_dynamic(std::size_t n, std::size_t chunk, F&& f) const {
    const int grain = static_cast<int>(chunk);
#pragma omp for schedule(dynamic, grain)
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
      f(static_cast<std::size_t>(i));
    }
  }
};
#endif

/// The set of not-yet-settled vertices, as a bitmap plus a one-bit-per-word
/// summary. Pull sweeps iterate only its members (skipping fully settled
/// regions a 4096-vertex block at a time), which turns the bottom-up round
/// cost from O(n) into O(unsettled volume). Push rounds do not maintain
/// it: the engine refills it from the visitor's settled() before a pull
/// round that follows a push round, so a search that never pulls never
/// touches it.
class UnsettledSet {
 public:
  /// Size the storage for a universe of n vertices. The contents are
  /// undefined until every block is refilled.
  void resize(vertex_t n) {
    n_ = n;
    const std::size_t num_words =
        (static_cast<std::size_t>(n) + Frontier::kWordBits - 1) /
        Frontier::kWordBits;
    words_.resize(num_words);
    summary_.resize((num_words + Frontier::kBlockWords - 1) /
                    Frontier::kBlockWords);
  }

  /// Recompute block b (its words and summary word) from `settled`.
  template <typename Settled>
  void refill_block(std::size_t b, Settled&& settled) {
    const std::size_t lo = b * Frontier::kBlockWords;
    const std::size_t hi = std::min(lo + Frontier::kBlockWords, words_.size());
    std::uint64_t summary = 0;
    for (std::size_t w = lo; w < hi; ++w) {
      const std::size_t base = w * Frontier::kWordBits;
      const std::size_t span =
          std::min(Frontier::kWordBits, static_cast<std::size_t>(n_) - base);
      std::uint64_t word = 0;
      for (std::size_t i = 0; i < span; ++i) {
        if (!settled(static_cast<vertex_t>(base + i))) {
          word |= std::uint64_t{1} << i;
        }
      }
      words_[w] = word;
      if (word != 0) summary |= std::uint64_t{1} << (w - lo);
    }
    summary_[b] = summary;
  }

  [[nodiscard]] std::size_t num_blocks() const { return summary_.size(); }
  [[nodiscard]] std::uint64_t summary_word(std::size_t b) const {
    return summary_[b];
  }
  [[nodiscard]] std::uint64_t word(std::size_t w) const { return words_[w]; }

  /// Exclusive-owner update of one word + its summary bit (pull-side).
  void remove_bits(std::size_t w, std::uint64_t bits) {
    words_[w] &= ~bits;
    if (words_[w] == 0) {
      summary_[w / Frontier::kBlockWords] &=
          ~(std::uint64_t{1} << (w % Frontier::kBlockWords));
    }
  }

 private:
  vertex_t n_ = 0;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
};

/// Pull one 64-word block of the unsettled set: every member resolves its
/// own claim, and the settled ones leave the set and are marked in `next`.
/// The caller owns block b, so the word updates need no atomics.
template <typename Visitor>
void pull_block(Visitor& vis, std::uint32_t t, UnsettledSet& unsettled,
                Frontier& next, std::size_t b, std::size_t row) {
  std::uint64_t block_bits = unsettled.summary_word(b);
  while (block_bits != 0) {
    const std::size_t w =
        b * Frontier::kBlockWords +
        static_cast<std::size_t>(std::countr_zero(block_bits));
    block_bits &= block_bits - 1;
    std::uint64_t candidates = unsettled.word(w);
    std::uint64_t settled_bits = 0;
    while (candidates != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(candidates));
      candidates &= candidates - 1;
      if (vis.pull(static_cast<vertex_t>(w * Frontier::kWordBits + bit), t)) {
        settled_bits |= std::uint64_t{1} << bit;
      }
    }
    if (settled_bits != 0) {
      unsettled.remove_bits(w, settled_bits);
      next.mark_word(w, settled_bits, row);
    }
  }
}

/// Frontier vertices per dynamic chunk of a push round's expansion: about
/// 16 chunks per thread, and never fewer than 64 vertices. Long contiguous
/// runs of the ascending frontier keep each thread's claim writes in its
/// own part of the graph (interleaved 64-vertex chunks made neighboring
/// threads write the same claim lines), while the spare chunks still
/// balance skewed degrees.
[[nodiscard]] inline std::size_t expand_chunk(std::size_t frontier,
                                              std::size_t team) {
  return std::max<std::size_t>(64, frontier / (16 * team));
}

}  // namespace detail

/// Reusable traversal scratch: the two frontiers and the unsettled set.
/// Passing the same workspace to successive run_traversal() calls on graphs
/// of similar size re-initializes the buffers in place instead of
/// reallocating them per run — the per-call overhead that
/// DecompositionWorkspace (core/decomposer.hpp) eliminates for repeated
/// same-graph decompositions. A default-constructed workspace holds no
/// storage; the first run sizes it. A workspace is not thread-safe; share
/// one per thread, never across concurrent runs.
struct TraversalWorkspace {
  Frontier cur;
  Frontier next;
  detail::UnsettledSet unsettled;
};

/// Run the round loop to quiescence (or params.max_rounds). The visitor
/// carries all per-vertex state; the engine owns frontiers, direction
/// choice, candidate packing, and work accounting. `workspace`, when
/// non-null, supplies the frontier/unsettled scratch (reused across calls);
/// the result is identical with or without it. `log`, when non-null,
/// receives one TraversalRound per executed round.
///
/// `Graph` is any type exposing the CsrGraph read contract
/// (num_vertices/num_arcs/degree/neighbors); storage::PagedGraph serves
/// the same loop out-of-core. Graphs with kGraphSupportsPull == false run
/// every round top-down (kPull/kAuto degrade to push; see the trait).
template <typename Graph, typename Visitor>
TraversalStats run_traversal(const Graph& g, Visitor& vis,
                             const TraversalParams& params = {},
                             TraversalWorkspace* workspace = nullptr,
                             RoundLog* log = nullptr) {
  using Clock = std::chrono::steady_clock;
  const vertex_t n = g.num_vertices();
  TraversalStats stats;
  TraversalWorkspace local;
  TraversalWorkspace& ws = workspace != nullptr ? *workspace : local;
  // One counter row per thread a round may fork.
  const std::size_t rows = static_cast<std::size_t>(num_threads());
  ws.cur.reset(n, rows);
  ws.next.reset(n, rows);
  Frontier& cur = ws.cur;
  Frontier& next = ws.next;
  detail::UnsettledSet& unsettled = ws.unsettled;
  bool unsettled_current = false;  // true only right after a pull round
  edge_t unexplored_arcs = g.num_arcs();
  edge_t frontier_degree = 0;  // out-degree of cur
  bool last_pull = false;

  std::uint32_t t = 0;
  for (;; ++t) {
    if (t >= params.max_rounds && params.max_rounds != kInfDist) break;
    const std::span<const vertex_t> bucket = vis.activations(t);
    const std::span<const vertex_t> frontier = cur.vertices();
    if (frontier.empty() && vis.activations_done(t)) break;

    // Push rounds far smaller than the fork/join break-even run on the
    // calling thread; a grid partition has hundreds of sparse rounds.
    const bool small_round =
        bucket.size() + frontier.size() < kSerialGrain / 4;

    bool use_pull = false;
    if constexpr (kGraphSupportsPull<Graph>) {
      if (t > 0) {  // pull reads "settled at t-1", meaningless at round 0
        switch (params.engine) {
          case TraversalEngine::kPush:
            break;
          case TraversalEngine::kPull:
            use_pull = true;
            break;
          case TraversalEngine::kAuto:
            // Beamer: enter bottom-up when the frontier's out-degree is a
            // large fraction of the unexplored arcs; hysteresis keeps
            // pulling while the frontier stays a large fraction of V.
            use_pull =
                !small_round &&
                (frontier_degree * params.alpha_div > unexplored_arcs ||
                 (last_pull && static_cast<edge_t>(frontier.size()) *
                                       params.beta_div >
                                   static_cast<edge_t>(n)));
            break;
        }
      }
    }

    stats.arcs_scanned += frontier_degree;
    unexplored_arcs -= std::min(frontier_degree, unexplored_arcs);
    const bool refill = use_pull && !unsettled_current;
    if (refill) unsettled.resize(n);

    const Clock::time_point round_start =
        log != nullptr ? Clock::now() : Clock::time_point{};
    Clock::time_point expand_end{};
    // One round: a pass over the frontier (or, pulling, over the unsettled
    // set) that marks next, then one over next's members that packs and
    // settles them. Returns this thread's share of next's out-degree.
    const auto round = [&](const auto& team) -> edge_t {
      constexpr bool kShared = std::decay_t<decltype(team)>::kShared;
      const std::size_t me = team.rank();
      if (use_pull) {
        if (refill) {
          team.for_each(unsettled.num_blocks(), [&](std::size_t b) {
            unsettled.refill_block(
                b, [&](vertex_t v) { return vis.settled(v); });
          });
        }
        // Self-activation claims must land before the sweep reads them.
        team.for_each(bucket.size(), [&](std::size_t i) {
          (void)vis.template offer_self<kShared>(bucket[i]);
        });
        team.for_each_dynamic(
            unsettled.num_blocks(), 1, [&](std::size_t b) {
              detail::pull_block(vis, t, unsettled, next, b, me);
            });
      } else {
        team.for_each_nowait(bucket.size(), [&](std::size_t i) {
          if (vis.template offer_self<kShared>(bucket[i])) {
            next.template mark<kShared>(bucket[i], me);
          }
        });
        team.for_each_dynamic(
            frontier.size(), detail::expand_chunk(frontier.size(), team.size()),
            [&](std::size_t i) {
              vis.template expand<kShared>(frontier[i], [&](vertex_t v) {
                next.template mark<kShared>(v, me);
              });
            });
      }
      if (log != nullptr && me == 0) expand_end = Clock::now();
      next.pack_count(me, team.size());
      team.barrier();
      next.pack_place(me, team.size());
      team.barrier();
      edge_t degree = 0;
      for (const vertex_t v : next.pack_extract(me, team.size())) {
        if (!use_pull) vis.settle(v, t);
        degree += static_cast<edge_t>(g.degree(v));
      }
      return degree;
    };

    // A pull sweeps the whole unsettled set however small the frontier,
    // so it always forks.
    edge_t next_degree = 0;
#if defined(_OPENMP)
    if (rows > 1 && (use_pull || !small_round)) {
#pragma omp parallel reduction(+ : next_degree)
      {
        const detail::OmpTeam team;
        MPX_ASSERT(team.size() <= rows);
        next_degree += round(team);
      }
    } else {
      next_degree = round(detail::SerialTeam{});
    }
#else
    next_degree = round(detail::SerialTeam{});
#endif

    if (use_pull) ++stats.pull_rounds;
    if (log != nullptr) {
      const Clock::time_point round_end = Clock::now();
      TraversalRound r;
      r.round = t;
      r.pull = use_pull;
      r.activations = bucket.size();
      r.frontier = frontier.size();
      r.settled = next.size();
      r.arcs = frontier_degree;
      r.expand_seconds =
          std::chrono::duration<double>(expand_end - round_start).count();
      r.settle_seconds =
          std::chrono::duration<double>(round_end - expand_end).count();
      log->record(r);
    }
    std::swap(cur, next);
    frontier_degree = next_degree;
    last_pull = use_pull;
    unsettled_current = use_pull;
  }

  stats.rounds = t;
  return stats;
}

}  // namespace mpx
