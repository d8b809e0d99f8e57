#include "graph/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/snapshot_blocks.hpp"
#include "graph/snapshot_internal.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MPX_SNAPSHOT_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace mpx::io {
namespace {

// The spec (docs/FORMATS.md) defines all multi-byte fields as
// little-endian and this implementation reads/writes them as host integers.
static_assert(std::endian::native == std::endian::little,
              "the .mpxs snapshot format requires a little-endian host");
static_assert(sizeof(edge_t) == 8 && sizeof(vertex_t) == 4 &&
                  sizeof(double) == 8,
              "snapshot section element sizes are fixed by the spec");

using detail::snap_align_up;
using detail::snap_fail;

/// FNV-1a-64 of a raw byte range, seeded with the offset basis (the
/// per-section checksum of both format versions).
std::uint64_t bytes_checksum(const void* data, std::size_t bytes) {
  return codec::fnv1a_64(codec::kFnvOffsetBasis,
                         static_cast<const unsigned char*>(data), bytes);
}

/// v1 whole-file checksum: the section payloads in file order (padding
/// excluded), one continued FNV-1a-64 chain.
std::uint64_t section_checksum(std::span<const edge_t> offsets,
                               std::span<const vertex_t> targets,
                               std::span<const double> weights) {
  std::uint64_t h = codec::kFnvOffsetBasis;
  h = codec::fnv1a_64(h, reinterpret_cast<const unsigned char*>(offsets.data()),
                      offsets.size_bytes());
  h = codec::fnv1a_64(h, reinterpret_cast<const unsigned char*>(targets.data()),
                      targets.size_bytes());
  h = codec::fnv1a_64(h, reinterpret_cast<const unsigned char*>(weights.data()),
                      weights.size_bytes());
  return h;
}

/// v1 header-level validation: everything checkable without touching the
/// section payloads. Throws on the first violation.
void validate_header(const SnapshotHeader& h, std::uint64_t file_bytes,
                     const std::string& path) {
  if (std::memcmp(h.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    snap_fail(path, "bad magic (not an mpx snapshot)");
  }
  if (h.version != kSnapshotVersion) {
    snap_fail(path, "unsupported format version " + std::to_string(h.version) +
                        " (this reader supports version " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  if ((h.flags & ~(kSnapshotFlagWeighted | kSnapshotFlagUndirected)) != 0) {
    snap_fail(path, "unknown flag bits set: " + std::to_string(h.flags));
  }
  if ((h.flags & kSnapshotFlagUndirected) == 0) {
    snap_fail(path, "directed snapshots are not defined in format version 1");
  }
  for (const unsigned char byte : h.reserved) {
    if (byte != 0) snap_fail(path, "nonzero reserved header bytes");
  }
  // Vertex ids are 32-bit with one sentinel value reserved.
  if (h.num_vertices >= 0xFFFFFFFFull) {
    snap_fail(path, "num_vertices exceeds the 32-bit vertex id space");
  }
  // Section sizes are fully determined by n, num_arcs and the flags.
  if (h.offsets_bytes != (h.num_vertices + 1) * sizeof(edge_t)) {
    snap_fail(path, "offsets_bytes inconsistent with num_vertices");
  }
  if (h.num_arcs > file_bytes / sizeof(vertex_t) ||
      h.targets_bytes != h.num_arcs * sizeof(vertex_t)) {
    snap_fail(path, "targets_bytes inconsistent with num_arcs");
  }
  const bool weighted = (h.flags & kSnapshotFlagWeighted) != 0;
  const std::uint64_t want_weights_bytes =
      weighted ? h.num_arcs * sizeof(double) : 0;
  if (h.weights_bytes != want_weights_bytes) {
    snap_fail(path, "weights_bytes inconsistent with num_arcs/flags");
  }
  if (!weighted && h.weights_offset != 0) {
    snap_fail(path, "weights_offset set on an unweighted snapshot");
  }
  // Version 1 fixes the section layout completely: offsets at 128,
  // targets and weights each at the 64-byte-aligned end of the previous
  // section. Enforcing equality (not just bounds) rejects overlapping or
  // reordered sections no conforming writer can produce.
  if (h.offsets_offset != kSnapshotHeaderBytes) {
    snap_fail(path, "offsets section not at the canonical offset");
  }
  if (h.targets_offset != snap_align_up(h.offsets_offset + h.offsets_bytes)) {
    snap_fail(path, "targets section not at the canonical offset");
  }
  if (weighted &&
      h.weights_offset != snap_align_up(h.targets_offset + h.targets_bytes)) {
    snap_fail(path, "weights section not at the canonical offset");
  }
  // The header fully determines the file size: every section (including
  // the last) is padded to the 64-byte boundary and nothing may follow.
  const std::uint64_t expected_end =
      weighted ? snap_align_up(h.weights_offset + h.weights_bytes)
               : snap_align_up(h.targets_offset + h.targets_bytes);
  if (file_bytes != expected_end) {
    snap_fail(path, "file size " + std::to_string(file_bytes) +
                        " does not match the header (expected " +
                        std::to_string(expected_end) +
                        "; truncated or trailing bytes)");
  }
}

void write_padded_section(std::ofstream& out, const void* data,
                          std::uint64_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  const std::uint64_t padded = snap_align_up(bytes);
  static constexpr char kZeros[kSnapshotSectionAlign] = {};
  out.write(kZeros, static_cast<std::streamsize>(padded - bytes));
}

/// Shared v1 writer. `weighted` is explicit (not inferred from the span)
/// so an edgeless weighted graph still writes a weighted snapshot.
void save_sections(const std::string& path, std::span<const edge_t> offsets,
                   std::span<const vertex_t> targets,
                   std::span<const double> weights, bool weighted) {
  SnapshotHeader h{};
  std::memcpy(h.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  h.version = kSnapshotVersion;
  h.flags = kSnapshotFlagUndirected | (weighted ? kSnapshotFlagWeighted : 0u);
  h.num_vertices = offsets.size() - 1;
  h.num_arcs = targets.size();
  h.offsets_bytes = offsets.size_bytes();
  h.targets_bytes = targets.size_bytes();
  h.weights_bytes = weights.size_bytes();
  h.offsets_offset = kSnapshotHeaderBytes;
  h.targets_offset = snap_align_up(h.offsets_offset + h.offsets_bytes);
  h.weights_offset =
      weighted ? snap_align_up(h.targets_offset + h.targets_bytes) : 0;
  h.checksum = section_checksum(offsets, targets, weights);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) snap_fail(path, "cannot open for writing");
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  write_padded_section(out, offsets.data(), h.offsets_bytes);
  write_padded_section(out, targets.data(), h.targets_bytes);
  if (weighted) write_padded_section(out, weights.data(), h.weights_bytes);
  out.flush();
  if (!out) snap_fail(path, "write failed");
}

/// Shared v2 writer for both tiers. The cold tier compresses `offsets`
/// into a varint degree stream and `targets` into entropy-coded blocks
/// (graph/snapshot_codec.hpp); weights stay raw in both tiers.
void save_sections_v2(const std::string& path, std::span<const edge_t> offsets,
                      std::span<const vertex_t> targets,
                      std::span<const double> weights, bool weighted,
                      SnapshotTier tier, std::uint32_t block_size) {
  const bool cold = tier == SnapshotTier::kCold;
  SnapshotHeaderV2 h{};
  std::memcpy(h.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  h.version = kSnapshotVersion2;
  h.flags = kSnapshotFlagUndirected | (weighted ? kSnapshotFlagWeighted : 0u) |
            (cold ? kSnapshotFlagColdTargets : 0u);
  h.num_vertices = offsets.size() - 1;
  h.num_arcs = targets.size();

  std::vector<unsigned char> degree_bytes;
  std::vector<unsigned char> payload;
  std::vector<codec::BlockIndexEntry> index;
  if (cold) {
    if (block_size < 2 || block_size > kSnapshotMaxBlockSize) {
      snap_fail(path, "cold-tier block_size " + std::to_string(block_size) +
                          " out of range [2, " +
                          std::to_string(kSnapshotMaxBlockSize) + "]");
    }
    degree_bytes = codec::encode_degree_section(offsets);
    const std::uint64_t num_blocks =
        (h.num_arcs + block_size - 1) / block_size;
    index.resize(num_blocks);
    std::vector<std::vector<unsigned char>> block_bytes(num_blocks);
    parallel_for(std::uint64_t{0}, num_blocks, [&](std::uint64_t b) {
      const edge_t begin = b * block_size;
      const auto count =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(
              block_size, h.num_arcs - begin));
      codec::encode_target_block(offsets, targets, begin, count,
                                 block_bytes[b], index[b]);
    });
    std::uint64_t total = 0;
    for (const auto& bb : block_bytes) total += bb.size();
    payload.reserve(total);
    for (const auto& bb : block_bytes) {
      payload.insert(payload.end(), bb.begin(), bb.end());
    }
    h.offsets_bytes = degree_bytes.size();
    h.targets_bytes = payload.size();
    h.block_index_bytes = num_blocks * sizeof(codec::BlockIndexEntry);
    h.block_size = block_size;
  } else {
    h.offsets_bytes = offsets.size_bytes();
    h.targets_bytes = targets.size_bytes();
  }
  h.weights_bytes = weights.size_bytes();

  h.offsets_offset = kSnapshotHeaderBytesV2;
  h.targets_offset = snap_align_up(h.offsets_offset + h.offsets_bytes);
  if (cold) {
    h.block_index_offset = snap_align_up(h.targets_offset + h.targets_bytes);
  }
  const std::uint64_t pre_weights =
      cold ? h.block_index_offset + h.block_index_bytes
           : h.targets_offset + h.targets_bytes;
  h.weights_offset = weighted ? snap_align_up(pre_weights) : 0;

  h.offsets_checksum =
      cold ? bytes_checksum(degree_bytes.data(), degree_bytes.size())
           : bytes_checksum(offsets.data(), offsets.size_bytes());
  h.targets_checksum =
      cold ? bytes_checksum(payload.data(), payload.size())
           : bytes_checksum(targets.data(), targets.size_bytes());
  h.block_index_checksum = bytes_checksum(
      index.data(), index.size() * sizeof(codec::BlockIndexEntry));
  h.weights_checksum = bytes_checksum(weights.data(), weights.size_bytes());
  h.header_checksum = bytes_checksum(&h, kSnapshotHeaderV2ChecksumBytes);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) snap_fail(path, "cannot open for writing");
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  if (cold) {
    write_padded_section(out, degree_bytes.data(), h.offsets_bytes);
    write_padded_section(out, payload.data(), h.targets_bytes);
    write_padded_section(out, index.data(), h.block_index_bytes);
  } else {
    write_padded_section(out, offsets.data(), h.offsets_bytes);
    write_padded_section(out, targets.data(), h.targets_bytes);
  }
  if (weighted) write_padded_section(out, weights.data(), h.weights_bytes);
  out.flush();
  if (!out) snap_fail(path, "write failed");
}

std::uint64_t file_size_or_fail(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) snap_fail(path, "cannot stat: " + ec.message());
  return static_cast<std::uint64_t>(size);
}

SnapshotHeader read_header(std::istream& in, const std::string& path) {
  SnapshotHeader h{};
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (in.gcount() != sizeof(h)) {
    snap_fail(path, "file shorter than the 128-byte header");
  }
  return h;
}

/// Read the version field only (with magic + supported-set validation) so
/// every public entry point can dispatch before committing to a header
/// layout.
std::uint32_t probe_version(const std::string& path,
                            std::uint64_t file_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) snap_fail(path, "cannot open");
  unsigned char head[16] = {};
  in.read(reinterpret_cast<char*>(head), sizeof(head));
  if (static_cast<std::size_t>(in.gcount()) != sizeof(head)) {
    snap_fail(path, "file shorter than the 128-byte header");
  }
  return detail::snapshot_version_of(head, file_bytes, path);
}

/// Owned-buffer section loads shared by load_snapshot and
/// load_weighted_snapshot (v1). Verifies checksum + structure.
struct LoadedSections {
  std::vector<edge_t> offsets;
  std::vector<vertex_t> targets;
  std::vector<double> weights;
  SnapshotHeader header;
};

LoadedSections load_sections(const std::string& path) {
  const std::uint64_t file_bytes = file_size_or_fail(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) snap_fail(path, "cannot open");
  LoadedSections s;
  s.header = read_header(in, path);
  validate_header(s.header, file_bytes, path);

  const auto read_section = [&](std::uint64_t offset, std::uint64_t bytes,
                                void* into) {
    if (bytes == 0) return;  // edgeless section (e.g. weighted, m == 0)
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(static_cast<char*>(into), static_cast<std::streamsize>(bytes));
    if (static_cast<std::uint64_t>(in.gcount()) != bytes) {
      snap_fail(path, "short read (truncated file?)");
    }
  };
  s.offsets.resize(s.header.num_vertices + 1);
  read_section(s.header.offsets_offset, s.header.offsets_bytes,
               s.offsets.data());
  s.targets.resize(s.header.num_arcs);
  read_section(s.header.targets_offset, s.header.targets_bytes,
               s.targets.data());
  if ((s.header.flags & kSnapshotFlagWeighted) != 0) {
    s.weights.resize(s.header.num_arcs);
    read_section(s.header.weights_offset, s.header.weights_bytes,
                 s.weights.data());
  }
  if (section_checksum(s.offsets, s.targets, s.weights) != s.header.checksum) {
    snap_fail(path, "checksum mismatch (corrupt payload)");
  }
  detail::validate_structure(s.offsets, s.targets, s.weights, path);
  return s;
}

/// Hot v2 sections as spans over a whole-file view (mmap when available).
/// Always validates header + structure; section checksums only when asked
/// (they force every page resident).
struct ViewedSectionsV2 {
  detail::SnapshotFileView view;
  SnapshotHeaderV2 header;
  std::span<const edge_t> offsets;
  std::span<const vertex_t> targets;
  std::span<const double> weights;  // empty when unweighted
};

ViewedSectionsV2 view_sections_v2_hot(const std::string& path,
                                      bool verify_checksums) {
  ViewedSectionsV2 s;
  s.view = detail::snapshot_file_view(path);
  s.header = detail::validate_header_v2(s.view.data, s.view.bytes, path);
  if ((s.header.flags & kSnapshotFlagColdTargets) != 0) {
    snap_fail(path, "cold-tier snapshot cannot be viewed raw");
  }
  const unsigned char* base = s.view.data;
  s.offsets = {
      reinterpret_cast<const edge_t*>(base + s.header.offsets_offset),
      static_cast<std::size_t>(s.header.num_vertices + 1)};
  s.targets = {
      reinterpret_cast<const vertex_t*>(base + s.header.targets_offset),
      static_cast<std::size_t>(s.header.num_arcs)};
  if ((s.header.flags & kSnapshotFlagWeighted) != 0) {
    s.weights = {
        reinterpret_cast<const double*>(base + s.header.weights_offset),
        static_cast<std::size_t>(s.header.num_arcs)};
  }
  if (verify_checksums) {
    if (bytes_checksum(s.offsets.data(), s.offsets.size_bytes()) !=
        s.header.offsets_checksum) {
      snap_fail(path, "offsets section checksum mismatch");
    }
    if (bytes_checksum(s.targets.data(), s.targets.size_bytes()) !=
        s.header.targets_checksum) {
      snap_fail(path, "targets section checksum mismatch");
    }
    if (bytes_checksum(s.weights.data(), s.weights.size_bytes()) !=
        s.header.weights_checksum) {
      snap_fail(path, "weights section checksum mismatch");
    }
  }
  detail::validate_structure(s.offsets, s.targets, s.weights, path);
  return s;
}

/// Hot v2 load into owned buffers (always checksum-verified).
LoadedSections load_sections_v2_hot(const std::string& path) {
  ViewedSectionsV2 s = view_sections_v2_hot(path, /*verify_checksums=*/true);
  LoadedSections out;
  out.offsets.assign(s.offsets.begin(), s.offsets.end());
  out.targets.assign(s.targets.begin(), s.targets.end());
  out.weights.assign(s.weights.begin(), s.weights.end());
  // Carry the fields shared with the v1 header so callers can stay
  // version-agnostic about n / arcs / flags.
  out.header = SnapshotHeader{};
  std::memcpy(out.header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  out.header.version = s.header.version;
  out.header.flags = s.header.flags;
  out.header.num_vertices = s.header.num_vertices;
  out.header.num_arcs = s.header.num_arcs;
  return out;
}

SnapshotInfo info_from_v1(const SnapshotHeader& h, std::uint64_t file_bytes) {
  SnapshotInfo info;
  info.version = h.version;
  info.flags = h.flags;
  info.num_vertices = h.num_vertices;
  info.num_arcs = h.num_arcs;
  info.file_bytes = file_bytes;
  info.offsets_offset = h.offsets_offset;
  info.offsets_bytes = h.offsets_bytes;
  info.targets_offset = h.targets_offset;
  info.targets_bytes = h.targets_bytes;
  info.weights_offset = h.weights_offset;
  info.weights_bytes = h.weights_bytes;
  info.checksum = h.checksum;
  return info;
}

SnapshotInfo info_from_v2(const SnapshotHeaderV2& h, std::uint64_t file_bytes) {
  SnapshotInfo info;
  info.version = h.version;
  info.flags = h.flags;
  info.num_vertices = h.num_vertices;
  info.num_arcs = h.num_arcs;
  info.file_bytes = file_bytes;
  info.offsets_offset = h.offsets_offset;
  info.offsets_bytes = h.offsets_bytes;
  info.targets_offset = h.targets_offset;
  info.targets_bytes = h.targets_bytes;
  info.weights_offset = h.weights_offset;
  info.weights_bytes = h.weights_bytes;
  info.block_index_offset = h.block_index_offset;
  info.block_index_bytes = h.block_index_bytes;
  info.block_size = h.block_size;
  return info;
}

/// The shallow cold verification half shared by verify_snapshot and
/// verify_snapshot_deep: all four section checksums, block-index geometry,
/// and the degree-stream decode. Returns the decoded offsets so the deep
/// pass can reuse them.
std::vector<edge_t> verify_cold_shallow(const detail::SnapshotFileView& view,
                                        const SnapshotHeaderV2& h,
                                        const std::string& path) {
  const unsigned char* base = view.data;
  if (bytes_checksum(base + h.offsets_offset, h.offsets_bytes) !=
      h.offsets_checksum) {
    snap_fail(path, "offsets section checksum mismatch");
  }
  if (bytes_checksum(base + h.targets_offset, h.targets_bytes) !=
      h.targets_checksum) {
    snap_fail(path, "targets section checksum mismatch");
  }
  if (bytes_checksum(base + h.block_index_offset, h.block_index_bytes) !=
      h.block_index_checksum) {
    snap_fail(path, "block index checksum mismatch");
  }
  if (bytes_checksum(base + h.weights_offset,
                     (h.flags & kSnapshotFlagWeighted) != 0 ? h.weights_bytes
                                                            : 0) !=
      h.weights_checksum) {
    snap_fail(path, "weights section checksum mismatch");
  }
  const std::size_t num_blocks =
      static_cast<std::size_t>(h.block_index_bytes /
                               sizeof(codec::BlockIndexEntry));
  std::vector<codec::BlockIndexEntry> index(num_blocks);
  if (!index.empty()) {  // an empty vector's data() may be null
    std::memcpy(index.data(), base + h.block_index_offset,
                h.block_index_bytes);
  }
  detail::validate_block_index(h, index, path);
  // Codec errors carry their own precise reason; let them propagate.
  return codec::decode_degree_section(
      {base + h.offsets_offset, static_cast<std::size_t>(h.offsets_bytes)},
      h.num_vertices, h.num_arcs);
}

}  // namespace

void save_snapshot(const std::string& path, const CsrGraph& g) {
  save_sections(path, g.offsets(), g.targets(), {}, /*weighted=*/false);
}

void save_snapshot(const std::string& path, const WeightedCsrGraph& g) {
  save_sections(path, g.topology().offsets(), g.topology().targets(),
                g.weights(), /*weighted=*/true);
}

std::vector<vertex_t> degree_descending_permutation(const CsrGraph& g) {
  const vertex_t n = g.num_vertices();
  std::vector<vertex_t> order(n);
  std::iota(order.begin(), order.end(), vertex_t{0});
  // stable_sort on strict degree-descending leaves equal degrees in old-id
  // ascending order — the documented tie-break.
  std::stable_sort(order.begin(), order.end(), [&](vertex_t a, vertex_t b) {
    return g.degree(a) > g.degree(b);
  });
  std::vector<vertex_t> new_of_old(n);
  for (vertex_t nv = 0; nv < n; ++nv) new_of_old[order[nv]] = nv;
  return new_of_old;
}

namespace {

/// Validate `new_of_old` as a permutation of [0, n) and return its
/// inverse (`old_of_new`), the iteration order both relabelers need.
std::vector<vertex_t> invert_permutation_or_throw(
    vertex_t n, std::span<const vertex_t> new_of_old) {
  if (new_of_old.size() != n) {
    throw std::invalid_argument(
        "mpx::io: apply_vertex_permutation: permutation has " +
        std::to_string(new_of_old.size()) + " entries for a graph with " +
        std::to_string(n) + " vertices");
  }
  std::vector<vertex_t> old_of_new(n, n);  // n = unassigned sentinel
  for (vertex_t old = 0; old < n; ++old) {
    const vertex_t nv = new_of_old[old];
    if (nv >= n || old_of_new[nv] != n) {
      throw std::invalid_argument(
          "mpx::io: apply_vertex_permutation: not a permutation of [0, n)");
    }
    old_of_new[nv] = old;
  }
  return old_of_new;
}

}  // namespace

CsrGraph apply_vertex_permutation(const CsrGraph& g,
                                  std::span<const vertex_t> new_of_old) {
  const vertex_t n = g.num_vertices();
  const std::vector<vertex_t> old_of_new =
      invert_permutation_or_throw(n, new_of_old);
  std::vector<edge_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (vertex_t nv = 0; nv < n; ++nv) {
    offsets[nv + 1] = offsets[nv] + g.degree(old_of_new[nv]);
  }
  std::vector<vertex_t> targets(g.num_arcs());
  for (vertex_t nv = 0; nv < n; ++nv) {
    const auto run = g.neighbors(old_of_new[nv]);
    vertex_t* out = targets.data() + offsets[nv];
    for (std::size_t i = 0; i < run.size(); ++i) out[i] = new_of_old[run[i]];
    std::sort(out, out + run.size());
  }
  return CsrGraph(std::move(offsets), std::move(targets));
}

WeightedCsrGraph apply_vertex_permutation(
    const WeightedCsrGraph& g, std::span<const vertex_t> new_of_old) {
  const CsrGraph& topo = g.topology();
  const vertex_t n = topo.num_vertices();
  const std::vector<vertex_t> old_of_new =
      invert_permutation_or_throw(n, new_of_old);
  std::vector<edge_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (vertex_t nv = 0; nv < n; ++nv) {
    offsets[nv + 1] = offsets[nv] + topo.degree(old_of_new[nv]);
  }
  std::vector<vertex_t> targets(topo.num_arcs());
  std::vector<double> weights(topo.num_arcs());
  std::vector<std::pair<vertex_t, double>> row;
  for (vertex_t nv = 0; nv < n; ++nv) {
    const vertex_t old = old_of_new[nv];
    const auto run = topo.neighbors(old);
    const auto w = g.arc_weights(old);
    row.clear();
    row.reserve(run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      row.emplace_back(new_of_old[run[i]], w[i]);
    }
    // Sort by relabeled target; pair ordering keeps parallel-edge weights
    // deterministically ordered too.
    std::sort(row.begin(), row.end());
    const edge_t base = offsets[nv];
    for (std::size_t i = 0; i < row.size(); ++i) {
      targets[base + i] = row[i].first;
      weights[base + i] = row[i].second;
    }
  }
  return WeightedCsrGraph(CsrGraph(std::move(offsets), std::move(targets)),
                          std::move(weights));
}

void save_snapshot(const std::string& path, const CsrGraph& g,
                   const SnapshotWriteOptions& options) {
  if (options.placement == SnapshotPlacement::kDegreeDescending) {
    SnapshotWriteOptions placed = options;
    placed.placement = SnapshotPlacement::kAsIs;
    save_snapshot(path,
                  apply_vertex_permutation(g, degree_descending_permutation(g)),
                  placed);
    return;
  }
  if (options.version == kSnapshotVersion) {
    if (options.tier != SnapshotTier::kHot) {
      snap_fail(path, "the cold tier requires format version 2");
    }
    save_sections(path, g.offsets(), g.targets(), {}, /*weighted=*/false);
    return;
  }
  if (options.version != kSnapshotVersion2) {
    snap_fail(path, "cannot write format version " +
                        std::to_string(options.version) +
                        " (this writer supports versions 1 and 2)");
  }
  save_sections_v2(path, g.offsets(), g.targets(), {}, /*weighted=*/false,
                   options.tier, options.block_size);
}

void save_snapshot(const std::string& path, const WeightedCsrGraph& g,
                   const SnapshotWriteOptions& options) {
  if (options.placement == SnapshotPlacement::kDegreeDescending) {
    SnapshotWriteOptions placed = options;
    placed.placement = SnapshotPlacement::kAsIs;
    save_snapshot(
        path,
        apply_vertex_permutation(g, degree_descending_permutation(g.topology())),
        placed);
    return;
  }
  if (options.version == kSnapshotVersion) {
    if (options.tier != SnapshotTier::kHot) {
      snap_fail(path, "the cold tier requires format version 2");
    }
    save_sections(path, g.topology().offsets(), g.topology().targets(),
                  g.weights(), /*weighted=*/true);
    return;
  }
  if (options.version != kSnapshotVersion2) {
    snap_fail(path, "cannot write format version " +
                        std::to_string(options.version) +
                        " (this writer supports versions 1 and 2)");
  }
  save_sections_v2(path, g.topology().offsets(), g.topology().targets(),
                   g.weights(), /*weighted=*/true, options.tier,
                   options.block_size);
}

// The loaders construct with CsrGraph::Trusted: validate_structure has
// already run the exact same O(n + m) checks (with recoverable errors),
// so the constructor contract scans would only repeat them on the
// ingestion hot path.

CsrGraph load_snapshot(const std::string& path) {
  const std::uint64_t file_bytes = file_size_or_fail(path);
  if (probe_version(path, file_bytes) == kSnapshotVersion2) {
    const detail::SnapshotFileView view = detail::snapshot_file_view(path);
    const SnapshotHeaderV2 h =
        detail::validate_header_v2(view.data, view.bytes, path);
    if ((h.flags & kSnapshotFlagWeighted) != 0) {
      snap_fail(path, "weighted snapshot; use load_weighted_snapshot");
    }
    if ((h.flags & kSnapshotFlagColdTargets) != 0) {
      const SnapshotBlockReader reader(path);
      return reader.materialize();
    }
    LoadedSections s = load_sections_v2_hot(path);
    return CsrGraph(std::move(s.offsets), std::move(s.targets),
                    CsrGraph::Trusted{});
  }
  LoadedSections s = load_sections(path);
  if ((s.header.flags & kSnapshotFlagWeighted) != 0) {
    snap_fail(path, "weighted snapshot; use load_weighted_snapshot");
  }
  return CsrGraph(std::move(s.offsets), std::move(s.targets),
                  CsrGraph::Trusted{});
}

WeightedCsrGraph load_weighted_snapshot(const std::string& path) {
  const std::uint64_t file_bytes = file_size_or_fail(path);
  if (probe_version(path, file_bytes) == kSnapshotVersion2) {
    const detail::SnapshotFileView view = detail::snapshot_file_view(path);
    const SnapshotHeaderV2 h =
        detail::validate_header_v2(view.data, view.bytes, path);
    if ((h.flags & kSnapshotFlagWeighted) == 0) {
      snap_fail(path, "unweighted snapshot; use load_snapshot");
    }
    if ((h.flags & kSnapshotFlagColdTargets) != 0) {
      const SnapshotBlockReader reader(path);
      return reader.materialize_weighted();
    }
    LoadedSections s = load_sections_v2_hot(path);
    return WeightedCsrGraph(
        CsrGraph(std::move(s.offsets), std::move(s.targets),
                 CsrGraph::Trusted{}),
        std::move(s.weights), CsrGraph::Trusted{});
  }
  LoadedSections s = load_sections(path);
  if ((s.header.flags & kSnapshotFlagWeighted) == 0) {
    snap_fail(path, "unweighted snapshot; use load_snapshot");
  }
  return WeightedCsrGraph(
      CsrGraph(std::move(s.offsets), std::move(s.targets),
               CsrGraph::Trusted{}),
      std::move(s.weights), CsrGraph::Trusted{});
}

CsrGraph map_snapshot(const std::string& path, bool verify_checksum) {
#if MPX_SNAPSHOT_HAVE_MMAP
  const std::uint64_t file_bytes = file_size_or_fail(path);
  if (probe_version(path, file_bytes) == kSnapshotVersion2) {
    const detail::SnapshotFileView probe = detail::snapshot_file_view(path);
    const SnapshotHeaderV2 h =
        detail::validate_header_v2(probe.data, probe.bytes, path);
    if ((h.flags & kSnapshotFlagWeighted) != 0) {
      snap_fail(path, "weighted snapshot; use map_weighted_snapshot");
    }
    if ((h.flags & kSnapshotFlagColdTargets) != 0) {
      // Cold spans cannot alias the mapping; materialize instead.
      const SnapshotBlockReader reader(path);
      return reader.materialize();
    }
    ViewedSectionsV2 s = view_sections_v2_hot(path, verify_checksum);
    return CsrGraph(s.offsets, s.targets, std::move(s.view.keepalive),
                    CsrGraph::Trusted{});
  }
  // v1
  {
    detail::SnapshotFileView view = detail::snapshot_file_view(path);
    if (view.bytes < kSnapshotHeaderBytes) {
      snap_fail(path, "file shorter than the 128-byte header");
    }
    SnapshotHeader h{};
    std::memcpy(&h, view.data, sizeof(h));
    validate_header(h, view.bytes, path);
    if ((h.flags & kSnapshotFlagWeighted) != 0) {
      snap_fail(path, "weighted snapshot; use map_weighted_snapshot");
    }
    const std::span<const edge_t> offsets{
        reinterpret_cast<const edge_t*>(view.data + h.offsets_offset),
        static_cast<std::size_t>(h.num_vertices + 1)};
    const std::span<const vertex_t> targets{
        reinterpret_cast<const vertex_t*>(view.data + h.targets_offset),
        static_cast<std::size_t>(h.num_arcs)};
    if (verify_checksum &&
        section_checksum(offsets, targets, {}) != h.checksum) {
      snap_fail(path, "checksum mismatch (corrupt payload)");
    }
    detail::validate_structure(offsets, targets, {}, path);
    return CsrGraph(offsets, targets, std::move(view.keepalive),
                    CsrGraph::Trusted{});
  }
#else
  (void)verify_checksum;
  return load_snapshot(path);
#endif
}

WeightedCsrGraph map_weighted_snapshot(const std::string& path,
                                       bool verify_checksum) {
#if MPX_SNAPSHOT_HAVE_MMAP
  const std::uint64_t file_bytes = file_size_or_fail(path);
  if (probe_version(path, file_bytes) == kSnapshotVersion2) {
    const detail::SnapshotFileView probe = detail::snapshot_file_view(path);
    const SnapshotHeaderV2 h =
        detail::validate_header_v2(probe.data, probe.bytes, path);
    if ((h.flags & kSnapshotFlagWeighted) == 0) {
      snap_fail(path, "unweighted snapshot; use map_snapshot");
    }
    if ((h.flags & kSnapshotFlagColdTargets) != 0) {
      const SnapshotBlockReader reader(path);
      return reader.materialize_weighted();
    }
    ViewedSectionsV2 s = view_sections_v2_hot(path, verify_checksum);
    // The topology view and the weight span share one mapping keepalive.
    CsrGraph topology(s.offsets, s.targets, s.view.keepalive,
                      CsrGraph::Trusted{});
    return WeightedCsrGraph(std::move(topology), s.weights,
                            std::move(s.view.keepalive), CsrGraph::Trusted{});
  }
  // v1
  {
    detail::SnapshotFileView view = detail::snapshot_file_view(path);
    if (view.bytes < kSnapshotHeaderBytes) {
      snap_fail(path, "file shorter than the 128-byte header");
    }
    SnapshotHeader h{};
    std::memcpy(&h, view.data, sizeof(h));
    validate_header(h, view.bytes, path);
    if ((h.flags & kSnapshotFlagWeighted) == 0) {
      snap_fail(path, "unweighted snapshot; use map_snapshot");
    }
    const std::span<const edge_t> offsets{
        reinterpret_cast<const edge_t*>(view.data + h.offsets_offset),
        static_cast<std::size_t>(h.num_vertices + 1)};
    const std::span<const vertex_t> targets{
        reinterpret_cast<const vertex_t*>(view.data + h.targets_offset),
        static_cast<std::size_t>(h.num_arcs)};
    const std::span<const double> weights{
        reinterpret_cast<const double*>(view.data + h.weights_offset),
        static_cast<std::size_t>(h.num_arcs)};
    if (verify_checksum &&
        section_checksum(offsets, targets, weights) != h.checksum) {
      snap_fail(path, "checksum mismatch (corrupt payload)");
    }
    detail::validate_structure(offsets, targets, weights, path);
    CsrGraph topology(offsets, targets, view.keepalive, CsrGraph::Trusted{});
    return WeightedCsrGraph(std::move(topology), weights,
                            std::move(view.keepalive), CsrGraph::Trusted{});
  }
#else
  (void)verify_checksum;
  return load_weighted_snapshot(path);
#endif
}

SnapshotInfo read_snapshot_info(const std::string& path) {
  const std::uint64_t file_bytes = file_size_or_fail(path);
  const std::uint32_t version = probe_version(path, file_bytes);
  std::ifstream in(path, std::ios::binary);
  if (!in) snap_fail(path, "cannot open");
  if (version == kSnapshotVersion2) {
    unsigned char head[kSnapshotHeaderBytesV2] = {};
    in.read(reinterpret_cast<char*>(head), sizeof(head));
    // validate_header_v2 rejects files shorter than the v2 header before
    // reading past what was actually present.
    const SnapshotHeaderV2 h =
        detail::validate_header_v2(head, file_bytes, path);
    return info_from_v2(h, file_bytes);
  }
  const SnapshotHeader h = read_header(in, path);
  validate_header(h, file_bytes, path);
  return info_from_v1(h, file_bytes);
}

SnapshotInfo verify_snapshot(const std::string& path) {
  const std::uint64_t file_bytes = file_size_or_fail(path);
  if (probe_version(path, file_bytes) == kSnapshotVersion2) {
    const detail::SnapshotFileView view = detail::snapshot_file_view(path);
    const SnapshotHeaderV2 h =
        detail::validate_header_v2(view.data, view.bytes, path);
    if ((h.flags & kSnapshotFlagColdTargets) != 0) {
      (void)verify_cold_shallow(view, h, path);
    } else {
      (void)view_sections_v2_hot(path, /*verify_checksums=*/true);
    }
    return info_from_v2(h, file_bytes);
  }
  // load_sections performs the full v1 pass: header geometry, checksum
  // over every payload byte, and the CSR structural invariants.
  const LoadedSections s = load_sections(path);
  return info_from_v1(s.header, file_bytes);
}

SnapshotInfo verify_snapshot_deep(const std::string& path) {
  SnapshotInfo info = verify_snapshot(path);
  if (info.version == kSnapshotVersion2 && info.cold()) {
    // Walk every block: per-block checksum, full entropy decode, and
    // structural validation of the reconstructed CSR.
    const SnapshotBlockReader reader(path);
    if (reader.weighted()) {
      (void)reader.materialize_weighted();
    } else {
      (void)reader.materialize();
    }
  }
  return info;
}

}  // namespace mpx::io

// ---------------------------------------------------------------------------
// detail: internals shared with snapshot_blocks.cpp
// ---------------------------------------------------------------------------

namespace mpx::io::detail {
namespace {

#if MPX_SNAPSHOT_HAVE_MMAP
/// Keepalive for mmap-ed snapshots: unmaps when the last view dies.
struct MappedFile {
  const unsigned char* base = nullptr;
  std::size_t bytes = 0;

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile() = default;
  ~MappedFile() {
    if (base != nullptr) {
      ::munmap(const_cast<unsigned char*>(base), bytes);
    }
  }
};
#endif

}  // namespace

void snap_fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("mpx::snapshot: " + path + ": " + what);
}

std::uint64_t snap_align_up(std::uint64_t offset) {
  const std::uint64_t a = kSnapshotSectionAlign;
  return (offset + a - 1) / a * a;
}

SnapshotFileView snapshot_file_view(const std::string& path) {
  SnapshotFileView view;
#if MPX_SNAPSHOT_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) snap_fail(path, "cannot open");
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    snap_fail(path, "cannot stat");
  }
  auto mapping = std::make_shared<MappedFile>();
  mapping->bytes = static_cast<std::size_t>(st.st_size);
  if (mapping->bytes == 0) {
    ::close(fd);
    snap_fail(path, "file shorter than the 128-byte header");
  }
  void* addr = ::mmap(nullptr, mapping->bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) snap_fail(path, "mmap failed");
  mapping->base = static_cast<const unsigned char*>(addr);
  view.data = mapping->base;
  view.bytes = mapping->bytes;
  view.keepalive = std::move(mapping);
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) snap_fail(path, "cannot open");
  auto bytes = std::make_shared<std::vector<unsigned char>>(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  if (bytes->empty()) snap_fail(path, "file shorter than the 128-byte header");
  view.data = bytes->data();
  view.bytes = bytes->size();
  view.keepalive = std::move(bytes);
#endif
  return view;
}

std::uint32_t snapshot_version_of(const unsigned char* data,
                                  std::uint64_t bytes,
                                  const std::string& path) {
  if (bytes < kSnapshotHeaderBytes) {
    snap_fail(path, "file shorter than the 128-byte header");
  }
  if (std::memcmp(data, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    snap_fail(path, "bad magic (not an mpx snapshot)");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, data + sizeof(kSnapshotMagic), sizeof(version));
  if (version != kSnapshotVersion && version != kSnapshotVersion2) {
    snap_fail(path,
              "unsupported format version " + std::to_string(version) +
                  " (this reader supports versions " +
                  std::to_string(kSnapshotVersion) + " and " +
                  std::to_string(kSnapshotVersion2) + ")");
  }
  return version;
}

SnapshotHeaderV2 validate_header_v2(const unsigned char* data,
                                    std::uint64_t file_bytes,
                                    const std::string& path) {
  if (file_bytes < kSnapshotHeaderBytesV2) {
    snap_fail(path, "file shorter than the 192-byte version-2 header");
  }
  SnapshotHeaderV2 h{};
  std::memcpy(&h, data, sizeof(h));
  if (std::memcmp(h.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    snap_fail(path, "bad magic (not an mpx snapshot)");
  }
  if (h.version != kSnapshotVersion2) {
    snap_fail(path, "unsupported format version " + std::to_string(h.version) +
                        " (this validator handles version " +
                        std::to_string(kSnapshotVersion2) + ")");
  }
  // The header carries its own checksum, so every later field can be
  // trusted against random corruption before any payload byte is read.
  if (codec::fnv1a_64(codec::kFnvOffsetBasis, data,
                      kSnapshotHeaderV2ChecksumBytes) != h.header_checksum) {
    snap_fail(path, "header checksum mismatch (corrupt header)");
  }
  if ((h.flags & ~(kSnapshotFlagWeighted | kSnapshotFlagUndirected |
                   kSnapshotFlagColdTargets)) != 0) {
    snap_fail(path, "unknown flag bits set: " + std::to_string(h.flags));
  }
  if ((h.flags & kSnapshotFlagUndirected) == 0) {
    snap_fail(path, "directed snapshots are not defined in format version 2");
  }
  if (h.reserved0 != 0) snap_fail(path, "nonzero reserved header bytes");
  for (const unsigned char byte : h.reserved) {
    if (byte != 0) snap_fail(path, "nonzero reserved header bytes");
  }
  if (h.num_vertices >= 0xFFFFFFFFull) {
    snap_fail(path, "num_vertices exceeds the 32-bit vertex id space");
  }
  const bool weighted = (h.flags & kSnapshotFlagWeighted) != 0;
  const bool cold = (h.flags & kSnapshotFlagColdTargets) != 0;
  if (cold) {
    if (h.block_size < 2 || h.block_size > kSnapshotMaxBlockSize) {
      snap_fail(path, "cold-tier block_size out of range");
    }
    // Strictly ascending runs cap every degree at n, so a conforming cold
    // file never stores more than n^2 arcs; checking it first keeps the
    // block-count arithmetic below overflow-free.
    if (h.num_arcs > h.num_vertices * h.num_vertices) {
      snap_fail(path, "num_arcs inconsistent with num_vertices");
    }
    if (h.targets_bytes > file_bytes) {
      snap_fail(path, "targets_bytes inconsistent with file size");
    }
    const std::uint64_t num_blocks =
        (h.num_arcs + h.block_size - 1) / h.block_size;
    if (num_blocks > file_bytes ||
        h.block_index_bytes != num_blocks * sizeof(codec::BlockIndexEntry)) {
      snap_fail(path, "block_index_bytes inconsistent with num_arcs");
    }
    // Varint degrees cost 1..10 bytes per vertex; a conforming stream can
    // never be shorter than n bytes or longer than 10n.
    if (h.offsets_bytes < h.num_vertices ||
        h.offsets_bytes > h.num_vertices * 10) {
      snap_fail(path, "offsets_bytes inconsistent with num_vertices");
    }
    // Every multi-arc block costs >= 1 bit per arc after the first, so the
    // payload bytes bound the arc count; without this a hostile header
    // could demand an arbitrarily large decode allocation.
    if (h.num_arcs > 8 * h.targets_bytes + num_blocks) {
      snap_fail(path, "num_arcs inconsistent with targets_bytes");
    }
  } else {
    if (h.offsets_bytes != (h.num_vertices + 1) * sizeof(edge_t)) {
      snap_fail(path, "offsets_bytes inconsistent with num_vertices");
    }
    if (h.num_arcs > file_bytes / sizeof(vertex_t) ||
        h.targets_bytes != h.num_arcs * sizeof(vertex_t)) {
      snap_fail(path, "targets_bytes inconsistent with num_arcs");
    }
    if (h.block_index_offset != 0 || h.block_index_bytes != 0 ||
        h.block_size != 0) {
      snap_fail(path, "block index fields set on a hot-tier snapshot");
    }
  }
  if (weighted && h.num_arcs > file_bytes / sizeof(double)) {
    snap_fail(path, "weights_bytes inconsistent with num_arcs/flags");
  }
  const std::uint64_t want_weights_bytes =
      weighted ? h.num_arcs * sizeof(double) : 0;
  if (h.weights_bytes != want_weights_bytes) {
    snap_fail(path, "weights_bytes inconsistent with num_arcs/flags");
  }
  if (!weighted && h.weights_offset != 0) {
    snap_fail(path, "weights_offset set on an unweighted snapshot");
  }
  // Version 2 fixes the section layout completely, like version 1:
  // offsets at 192, then targets, then (cold only) the block index, then
  // weights, each at the 64-byte-aligned end of its predecessor.
  if (h.offsets_offset != kSnapshotHeaderBytesV2) {
    snap_fail(path, "offsets section not at the canonical offset");
  }
  if (h.targets_offset != snap_align_up(h.offsets_offset + h.offsets_bytes)) {
    snap_fail(path, "targets section not at the canonical offset");
  }
  if (cold && h.block_index_offset !=
                  snap_align_up(h.targets_offset + h.targets_bytes)) {
    snap_fail(path, "block index section not at the canonical offset");
  }
  const std::uint64_t pre_weights =
      cold ? h.block_index_offset + h.block_index_bytes
           : h.targets_offset + h.targets_bytes;
  if (weighted && h.weights_offset != snap_align_up(pre_weights)) {
    snap_fail(path, "weights section not at the canonical offset");
  }
  const std::uint64_t expected_end = snap_align_up(
      weighted ? h.weights_offset + h.weights_bytes : pre_weights);
  if (file_bytes != expected_end) {
    snap_fail(path, "file size " + std::to_string(file_bytes) +
                        " does not match the header (expected " +
                        std::to_string(expected_end) +
                        "; truncated or trailing bytes)");
  }
  return h;
}

void validate_block_index(const SnapshotHeaderV2& h,
                          std::span<const codec::BlockIndexEntry> index,
                          const std::string& path) {
  std::uint64_t payload_sum = 0;
  for (std::size_t b = 0; b < index.size(); ++b) {
    const codec::BlockIndexEntry& e = index[b];
    // Arc counts follow a fixed formula, so overlapping or overrunning
    // block ranges are structurally impossible in a conforming index.
    const std::uint64_t arc_begin =
        static_cast<std::uint64_t>(b) * h.block_size;
    const auto want_count = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(h.block_size, h.num_arcs - arc_begin));
    if (e.count != want_count) {
      snap_fail(path, "block " + std::to_string(b) +
                          " arc count does not match its arc range");
    }
    if (e.first_target >= h.num_vertices) {
      snap_fail(path,
                "block " + std::to_string(b) + " first_target out of range");
    }
    if (e.count <= 1) {
      if (e.byte_len != 0) {
        snap_fail(path, "block " + std::to_string(b) +
                            " single-arc block carries payload bytes");
      }
    } else {
      // Code table plus >= 1 bit per coded value: the cheapest possible
      // conforming payload. Enforcing it bounds total arcs by file bytes.
      const std::uint64_t min_len =
          codec::kBlockTableBytes + (e.count - 1 + 7) / 8;
      if (e.byte_len < min_len) {
        snap_fail(path, "block " + std::to_string(b) +
                            " payload shorter than its arc count allows");
      }
    }
    payload_sum += e.byte_len;
  }
  if (payload_sum != h.targets_bytes) {
    snap_fail(path, "block payloads do not tile the targets section");
  }
}

void validate_structure(std::span<const edge_t> offsets,
                        std::span<const vertex_t> targets,
                        std::span<const double> weights,
                        const std::string& path) {
  const auto n = static_cast<vertex_t>(offsets.size() - 1);
  if (offsets.front() != 0) snap_fail(path, "offsets[0] != 0");
  if (offsets.back() != targets.size()) {
    snap_fail(path, "offsets[n] != num_arcs");
  }
  const std::size_t non_monotone =
      parallel_count_if(vertex_t{0}, n, [&](vertex_t v) {
        return offsets[v] > offsets[v + 1];
      });
  if (non_monotone != 0) snap_fail(path, "offsets are not monotone");
  const std::size_t out_of_range =
      parallel_count_if(std::size_t{0}, targets.size(), [&](std::size_t e) {
        return targets[e] >= n;
      });
  if (out_of_range != 0) snap_fail(path, "arc target out of range");
  if (!weights.empty()) {
    const std::size_t bad_weights = parallel_count_if(
        std::size_t{0}, weights.size(),
        [&](std::size_t e) { return !(weights[e] > 0.0); });
    if (bad_weights != 0) snap_fail(path, "non-positive arc weight");
  }
}

}  // namespace mpx::io::detail
