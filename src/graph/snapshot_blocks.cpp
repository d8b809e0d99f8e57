#include "graph/snapshot_blocks.hpp"

#include <cstring>
#include <exception>
#include <mutex>
#include <utility>

#include "graph/snapshot_internal.hpp"
#include "parallel/parallel_for.hpp"

namespace mpx::io {

SnapshotBlockReader::SnapshotBlockReader(const std::string& path)
    : path_(path) {
  detail::SnapshotFileView view = detail::snapshot_file_view(path);
  header_ = detail::validate_header_v2(view.data, view.bytes, path);
  if ((header_.flags & kSnapshotFlagColdTargets) == 0) {
    detail::snap_fail(path, "not a cold-tier snapshot (hot files mmap raw)");
  }
  const unsigned char* base = view.data;

  // Eager half of cold validation. Index first: its checksum guards the
  // geometry that every later per-block read trusts.
  if (codec::fnv1a_64(codec::kFnvOffsetBasis,
                      base + header_.block_index_offset,
                      header_.block_index_bytes) !=
      header_.block_index_checksum) {
    detail::snap_fail(path, "block index checksum mismatch");
  }
  index_.resize(static_cast<std::size_t>(header_.block_index_bytes /
                                         sizeof(codec::BlockIndexEntry)));
  if (!index_.empty()) {  // an empty vector's data() may be null
    std::memcpy(index_.data(), base + header_.block_index_offset,
                header_.block_index_bytes);
  }
  detail::validate_block_index(header_, index_, path);

  // Offsets are resident: the varint degree stream is checksummed and
  // decoded up front (block decoding needs run boundaries).
  if (codec::fnv1a_64(codec::kFnvOffsetBasis, base + header_.offsets_offset,
                      header_.offsets_bytes) != header_.offsets_checksum) {
    detail::snap_fail(path, "offsets section checksum mismatch");
  }
  offsets_ = codec::decode_degree_section(
      {base + header_.offsets_offset,
       static_cast<std::size_t>(header_.offsets_bytes)},
      header_.num_vertices, header_.num_arcs);

  payload_start_.resize(index_.size() + 1);
  payload_start_[0] = 0;
  for (std::size_t b = 0; b < index_.size(); ++b) {
    payload_start_[b + 1] = payload_start_[b] + index_[b].byte_len;
  }
  payload_base_ = base + header_.targets_offset;
  if ((header_.flags & kSnapshotFlagWeighted) != 0) {
    weights_ = {reinterpret_cast<const double*>(base + header_.weights_offset),
                static_cast<std::size_t>(header_.num_arcs)};
  }
  keepalive_ = std::move(view.keepalive);
}

void SnapshotBlockReader::decode_block(std::size_t b,
                                       std::span<vertex_t> out) const {
  const codec::BlockIndexEntry& entry = index_[b];
  const std::span<const unsigned char> payload{
      payload_base_ + payload_start_[b],
      static_cast<std::size_t>(entry.byte_len)};
  // Lazy per-block verification: the payload checksum is only ever checked
  // here, when the block is actually decoded.
  if (static_cast<std::uint32_t>(codec::fnv1a_64(
          codec::kFnvOffsetBasis, payload.data(), payload.size())) !=
      entry.checksum) {
    detail::snap_fail(path_, "block " + std::to_string(b) +
                                 " payload checksum mismatch");
  }
  codec::decode_target_block(offsets_, block_arc_begin(b), entry, payload,
                             static_cast<vertex_t>(header_.num_vertices),
                             out);
}

CsrGraph SnapshotBlockReader::materialize() const {
  std::vector<vertex_t> targets(static_cast<std::size_t>(header_.num_arcs));
  // Blocks decode independently; a decode error inside a worker must
  // surface as the usual std::runtime_error, so workers stash the first
  // exception instead of letting it escape the parallel region.
  std::exception_ptr first_error;
  std::mutex error_mutex;
  parallel_for(std::size_t{0}, index_.size(), [&](std::size_t b) {
    try {
      decode_block(b, std::span<vertex_t>(targets)
                          .subspan(static_cast<std::size_t>(block_arc_begin(b)),
                                   index_[b].count));
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  });
  if (first_error) std::rethrow_exception(first_error);
  std::vector<edge_t> offsets = offsets_;
  detail::validate_structure(offsets, targets, {}, path_);
  return CsrGraph(std::move(offsets), std::move(targets),
                  CsrGraph::Trusted{});
}

WeightedCsrGraph SnapshotBlockReader::materialize_weighted() const {
  if (!weighted()) {
    detail::snap_fail(path_, "unweighted snapshot; use materialize");
  }
  // Weights are the one section the constructor left untouched; verify
  // their checksum now that every byte goes resident anyway.
  if (codec::fnv1a_64(
          codec::kFnvOffsetBasis,
          reinterpret_cast<const unsigned char*>(weights_.data()),
          weights_.size_bytes()) != header_.weights_checksum) {
    detail::snap_fail(path_, "weights section checksum mismatch");
  }
  CsrGraph topology = materialize();
  std::vector<double> weights(weights_.begin(), weights_.end());
  detail::validate_structure(topology.offsets(), topology.targets(), weights,
                             path_);
  return WeightedCsrGraph(std::move(topology), std::move(weights),
                          CsrGraph::Trusted{});
}

}  // namespace mpx::io
