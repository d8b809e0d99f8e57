/// \file
/// \brief Bounded-memory access to cold-tier (compressed) v2 snapshots.
///
/// A cold `.mpxs` file stores its targets section as entropy-coded blocks
/// (graph/snapshot_codec.hpp). `load_snapshot` materializes the whole
/// graph; this header is the alternative for graphs bigger than RAM:
///
/// `SnapshotBlockReader` maps the file and eagerly validates the header,
/// the block index, and the (decompressed, resident) offsets array —
/// everything except the block payloads, which are checksum-verified
/// **lazily**, block by block, as they are decoded. The bounded block
/// cache and the per-vertex adjacency view on top of it live in
/// src/storage/ (`storage::ShardedBlockCache`, `storage::PagedGraph`):
/// O(n) resident offsets plus a byte budget of decoded arcs, independent
/// of m.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/snapshot.hpp"

namespace mpx::io {

/// Validated random-access view of one cold-tier snapshot file.
///
/// Construction maps (or, without POSIX mmap, reads) the file and runs the
/// eager half of cold validation: header (incl. its checksum), block-index
/// checksum and geometry, offsets checksum and degree decode. Block
/// payloads and the weights section stay untouched until asked for.
/// All methods are const and safe to call from concurrent threads;
/// `decode_block` writes only to the caller's buffer.
class SnapshotBlockReader {
 public:
  /// Opens `path`, which must be a version-2 cold-tier snapshot; throws
  /// std::runtime_error otherwise, or on any corruption the eager
  /// validation half can see.
  explicit SnapshotBlockReader(const std::string& path);

  SnapshotBlockReader(const SnapshotBlockReader&) = delete;
  SnapshotBlockReader& operator=(const SnapshotBlockReader&) = delete;

  /// Number of vertices.
  [[nodiscard]] vertex_t num_vertices() const {
    return static_cast<vertex_t>(offsets_.size() - 1);
  }
  /// Number of stored directed arcs.
  [[nodiscard]] edge_t num_arcs() const { return offsets_.back(); }
  /// True when the file carries a weights section.
  [[nodiscard]] bool weighted() const {
    return (header_.flags & kSnapshotFlagWeighted) != 0;
  }
  /// Arcs per block (the final block may hold fewer).
  [[nodiscard]] std::uint32_t block_size() const { return header_.block_size; }
  /// Number of blocks (== ceil(num_arcs / block_size)).
  [[nodiscard]] std::size_t num_blocks() const { return index_.size(); }
  /// The validated v2 header.
  [[nodiscard]] const SnapshotHeaderV2& header() const { return header_; }

  /// The resident CSR offsets array (n + 1 entries), decoded from the
  /// varint degree stream at construction.
  [[nodiscard]] std::span<const edge_t> offsets() const { return offsets_; }

  /// Raw (uncompressed) weights span aliasing the mapping; empty when the
  /// snapshot is unweighted. NOT checksum-verified — use
  /// `verify_snapshot(_deep)` for that.
  [[nodiscard]] std::span<const double> weights() const { return weights_; }

  /// First arc of block `b`.
  [[nodiscard]] edge_t block_arc_begin(std::size_t b) const {
    return static_cast<edge_t>(b) * header_.block_size;
  }
  /// Arc count of block `b` (== block_size except for the final block).
  [[nodiscard]] std::uint32_t block_arc_count(std::size_t b) const {
    return index_[b].count;
  }
  /// Block containing arc `arc`.
  [[nodiscard]] std::size_t block_of_arc(edge_t arc) const {
    return static_cast<std::size_t>(arc / header_.block_size);
  }

  /// Decode block `b` into `out` (size must equal `block_arc_count(b)`).
  /// Verifies the block's index checksum over its payload first; throws
  /// std::runtime_error on mismatch or any malformed payload.
  void decode_block(std::size_t b, std::span<vertex_t> out) const;

  /// Decode every block (in parallel) into an owning in-memory graph whose
  /// offsets/targets spans are byte-identical to the hot-tier load of the
  /// same graph.
  [[nodiscard]] CsrGraph materialize() const;

  /// Weighted counterpart of `materialize`; verifies the weights checksum
  /// (the one section the constructor leaves untouched) and copies the
  /// weights. Throws if the snapshot is unweighted.
  [[nodiscard]] WeightedCsrGraph materialize_weighted() const;

 private:
  std::shared_ptr<const void> keepalive_;     // mapping / owned file bytes
  const unsigned char* payload_base_ = nullptr;  // targets section start
  SnapshotHeaderV2 header_{};
  std::vector<edge_t> offsets_;               // resident, decoded
  std::vector<codec::BlockIndexEntry> index_; // resident copy
  std::vector<std::uint64_t> payload_start_;  // per-block payload offset
  std::span<const double> weights_;           // raw view; empty if absent
  std::string path_;                          // for error messages
};

}  // namespace mpx::io
