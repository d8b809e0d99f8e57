// Frontier: the vertex set of one traversal round, shared by every
// level-synchronous search in the library (delayed multi-source BFS,
// parallel BFS).
//
// A frontier is built in two steps:
//   * mark  — threads mark candidate vertices in a bitmap (one bit per
//             vertex). Each marking thread also counts its new marks per
//             4096-vertex block in a private counter row, so no counter is
//             shared and marking needs one atomic OR per new member.
//   * pack  — the marks become the member list, in ascending order, in
//             three team steps separated by barriers: count (sum the rows
//             of each block), place (an exclusive scan over the blocks of
//             all parts) and extract (each part writes its blocks' members
//             and zeroes their bitmap words). A team of one runs the same
//             steps over only the blocks it touched, so a tiny round costs
//             O(members + n / 262144), not O(n / 4096).
// After a pack the bitmap and the counter rows are zero again, so the next
// round marks into clean storage without a clearing pass, and every buffer
// is reused: a warm frontier allocates only when a pack outgrows its
// largest earlier member list.
//
// The member list is sorted ascending, so the iteration order of a frontier
// is a pure function of its contents — never of the thread schedule that
// built it.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace mpx {

class Frontier {
 public:
  /// Bits per bitmap word.
  static constexpr std::size_t kWordBits = 64;
  /// Words per block (= vertices per counted block: kBlockWords *
  /// kWordBits = 4096).
  static constexpr std::size_t kBlockWords = 64;

  Frontier() = default;
  explicit Frontier(vertex_t n, std::size_t rows = 1) { reset(n, rows); }

  /// Resize to a universe of n vertices with `rows` counter rows (one per
  /// thread that may mark concurrently) and empty it. Reuses the existing
  /// storage; only a larger universe or more rows allocate.
  void reset(vertex_t n, std::size_t rows = 1);

  [[nodiscard]] vertex_t universe() const { return n_; }

  /// Number of members as of the last pack.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Members as of the last pack, ascending.
  [[nodiscard]] std::span<const vertex_t> vertices() const {
    return {members_.data(), size_};
  }

  /// Mark v for the next pack; returns true iff this call set its bit.
  /// With Shared, thread-safe for distinct rows: the caller owns counter
  /// row `row`. Without, the caller must be the only thread marking.
  template <bool Shared = true>
  bool mark(vertex_t v, std::size_t row) {
    MPX_EXPECTS(v < n_ && row < rows_);
    const std::size_t w = v / kWordBits;
    const std::uint64_t mask = std::uint64_t{1} << (v % kWordBits);
    std::uint64_t before;
    if constexpr (Shared) {
      before = std::atomic_ref<std::uint64_t>(bits_[w]).fetch_or(
          mask, std::memory_order_relaxed);
    } else {
      before = bits_[w];
      bits_[w] = before | mask;
    }
    if ((before & mask) != 0) return false;
    const std::size_t b = w / kBlockWords;
    if (row_counts(row)[b]++ == 0) {
      row_touched(row)[b / kWordBits] |= std::uint64_t{1} << (b % kWordBits);
    }
    return true;
  }

  /// OR the bits of word w into the marks. The caller owns word w
  /// exclusively (no other thread marks inside it until the pack) and
  /// counter row `row`.
  void mark_word(std::size_t w, std::uint64_t bits, std::size_t row);

  /// The three pack steps for part `part` of `parts` (the team rank and
  /// size; parts <= rows). Every part runs each step, with a barrier
  /// between steps. pack_extract returns the part's members: one
  /// contiguous, ascending slice of vertices(), disjoint from the other
  /// parts' slices.
  void pack_count(std::size_t part, std::size_t parts);
  void pack_place(std::size_t part, std::size_t parts);
  std::span<const vertex_t> pack_extract(std::size_t part, std::size_t parts);

 private:
  [[nodiscard]] std::uint32_t* row_counts(std::size_t row) {
    return counts_.data() + row * num_blocks_;
  }
  [[nodiscard]] std::uint64_t* row_touched(std::size_t row) {
    return touched_.data() + row * touched_words_;
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> block_range(
      std::size_t part, std::size_t parts) const {
    return {part * num_blocks_ / parts, (part + 1) * num_blocks_ / parts};
  }
  /// Calls f(b) for every block row 0 touched since the last pack, in
  /// ascending order (the team-of-one steps).
  template <typename F>
  void for_each_touched(F&& f);
  /// Writes block b's members to members_[at...] and zeroes its words.
  void extract_block(std::size_t b, std::size_t at);

  vertex_t n_ = 0;
  std::size_t rows_ = 0;
  std::size_t num_blocks_ = 0;
  std::size_t touched_words_ = 0;
  std::vector<std::uint64_t> bits_;      // one bit per vertex
  std::vector<std::uint32_t> counts_;    // rows x blocks new-mark counters
  std::vector<std::uint64_t> touched_;   // rows x blocks bits: counter != 0
  std::vector<std::uint32_t> block_size_;   // per block: members this pack
  std::vector<std::size_t> block_start_;    // per block: first position
  std::vector<std::size_t> part_size_;      // per part: members it packs
  std::vector<std::size_t> part_start_;     // per part: first position
  std::vector<vertex_t> members_;  // ascending; capacity kept across packs
  std::size_t size_ = 0;
};

}  // namespace mpx
