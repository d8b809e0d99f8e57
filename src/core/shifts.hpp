// Exponentially-shifted start times (Sections 3-5 of the paper).
//
// Each vertex u draws delta_u ~ Exp(beta) (line 1 of Algorithm 1). The BFS
// implementation needs, per vertex:
//   start_round[u] = floor(delta_max - delta_u)   (when u's search wakes up)
//   rank[u]        = tie-break priority among same-round arrivals
// For TieBreak::kFractionalShift, rank is the ascending order of
// frac(delta_max - delta_u), which makes (start_round, rank) ordering
// coincide exactly with the real-valued shifted-distance ordering of
// Algorithm 2 (integer graph distances shift values by whole rounds and
// leave the fractional part untouched).
#pragma once

#include <cstdint>
#include <vector>

#include "core/options.hpp"
#include "parallel/bucket_rank.hpp"
#include "support/types.hpp"

namespace mpx {

struct Shifts {
  /// delta[u] ~ Exp(beta), deterministic in (seed, u).
  std::vector<double> delta;
  /// max_u delta[u]; E[delta_max] = H_n / beta (Lemma 4.2).
  double delta_max = 0.0;
  /// floor(delta_max - delta[u]): the BFS round at which u self-activates.
  std::vector<std::uint32_t> start_round;
  /// Unique tie-break priority; smaller wins same-round contests.
  std::vector<std::uint32_t> rank;
};

/// Draw shifts for n vertices with rate `opt.beta` and build the discrete
/// (start_round, rank) schedule per `opt.tie_break`.
[[nodiscard]] Shifts generate_shifts(vertex_t n, const PartitionOptions& opt);

/// Reusable scratch for the fractional-shift rank, so repeated shift
/// generation through a workspace allocates nothing on warm runs
/// (tests/test_shift_rank_identity.cpp counts allocations to hold that).
///
/// The `order`/`frac` vectors of the retired comparator-sort rank are
/// gone: the bucketed rank scatters contiguous (key, id) records and
/// bucket offsets instead (parallel/bucket_rank.hpp), which is both its
/// scratch and the reason the finishing pass never chases a random index
/// per comparison.
struct ShiftWorkspace {
  /// Bucket scatter records + offsets for the fractional rank.
  BucketSortScratch<double> rank_scratch;
  /// Phase breakdown of the most recent generate_shifts /
  /// shifts_from_basis call through this workspace: drawing the deltas
  /// (delta fill + delta_max + start rounds) vs building the tie-break
  /// rank. Surfaced as RunTelemetry::shift_draw_seconds /
  /// shift_rank_seconds by the decomposer.
  double last_draw_seconds = 0.0;
  double last_rank_seconds = 0.0;
};

/// In-place variant of generate_shifts: writes into `out`, reusing its
/// vectors (and `scratch`, when non-null). Bitwise-identical to the
/// returning form.
void generate_shifts(vertex_t n, const PartitionOptions& opt, Shifts& out,
                     ShiftWorkspace* scratch = nullptr);

/// The seed-dependent, beta-independent part of the shift draws: for the
/// exponential and permutation-quantile distributions, -ln(1 - u_v) (the
/// unit-rate exponential each vertex scales by 1/beta); for the uniform
/// distribution, the uniform draw u_v itself. Computing the basis once per
/// (seed, distribution) and deriving each beta's shifts from it is how
/// batch multi-beta runs (SharedResultStore::acquire_batch) generate
/// shifts once per batch — `shifts_from_basis` is guaranteed bitwise-identical to
/// `generate_shifts` at every beta, because the per-beta scaling performs
/// the exact floating-point operations of the direct draw.
struct ShiftBasis {
  ShiftDistribution distribution = ShiftDistribution::kExponential;
  std::uint64_t seed = 0;
  vertex_t n = 0;
  /// Per-vertex beta-independent draw (see above).
  std::vector<double> base;
  /// max_v base[v], computed once per basis. Every beta's per-vertex
  /// scaling is monotone (divide by beta, or multiply by the uniform
  /// range), so scaling base_max yields delta_max bitwise-equal to a
  /// fresh reduction over the scaled deltas — shifts_from_basis uses it
  /// to skip one full O(n) pass per beta of a batch.
  double base_max = 0.0;
};

/// Compute the shift basis for n vertices (beta is not read).
[[nodiscard]] ShiftBasis make_shift_basis(vertex_t n,
                                          const PartitionOptions& opt);

/// Derive the shifts of `opt.beta` from a precomputed basis. Preconditions:
/// the basis was built for the same n, seed, and distribution.
void shifts_from_basis(const ShiftBasis& basis, const PartitionOptions& opt,
                       Shifts& out, ShiftWorkspace* scratch = nullptr);

}  // namespace mpx
