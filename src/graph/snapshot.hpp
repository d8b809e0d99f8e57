/// \file
/// \brief Binary mmap-able CSR snapshot I/O (the `.mpxs` format).
///
/// The snapshot format stores a canonical CSR graph byte-for-byte as the
/// library holds it in memory, so loading is a bounded number of block
/// reads (`load_snapshot`) or a zero-copy `mmap` (`map_snapshot`) instead
/// of the parse + sort + dedup pipeline text edge lists pay on every load.
///
/// Two format versions exist, both **normatively specified in
/// docs/FORMATS.md**; the header static_asserts below pin this
/// implementation to the spec's stated byte offsets.
///
///  * **Version 1**: 128-byte little-endian header (magic, version, flags,
///    n, arc count, per-section byte offsets/sizes, one whole-file FNV-1a
///    checksum) followed by 64-byte-aligned sections — `offsets` (u64),
///    `targets` (u32), and for weighted graphs `weights` (f64).
///  * **Version 2**: 192-byte header with **per-section checksums** (the
///    header verifies eagerly — including its own checksum — and sections
///    lazily), serving two tiers from the same format: the **hot tier**
///    stores the sections raw exactly like v1 (mmap-able zero copy), the
///    **cold tier** compresses `offsets` into a varint degree stream and
///    `targets` into fixed-size delta+entropy-coded blocks with a 16-byte
///    per-block index row (graph/snapshot_codec.hpp has the codec,
///    graph/snapshot_blocks.hpp the bounded block cache).
///
/// Readers reject corrupt input (truncation, bad magic, unknown versions,
/// unknown flags, misaligned or out-of-bounds sections, non-CSR content)
/// with `std::runtime_error`; they never abort on bad bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/snapshot_codec.hpp"

namespace mpx::io {

/// First 8 file bytes of every snapshot: "MPXSNAP\0".
inline constexpr unsigned char kSnapshotMagic[8] = {'M', 'P', 'X', 'S',
                                                    'N', 'A', 'P', '\0'};

/// Format version 1 (the legacy 2-argument `save_snapshot` still writes
/// it byte-identically, so v1 fixtures stay reproducible).
inline constexpr std::uint32_t kSnapshotVersion = 1;
/// Format version 2: per-section checksums + optional cold tier.
inline constexpr std::uint32_t kSnapshotVersion2 = 2;
/// Newest version this library writes; readers accept versions 1 and 2
/// and reject everything else by naming both the file's version and the
/// supported range.
inline constexpr std::uint32_t kSnapshotVersionLatest = kSnapshotVersion2;

/// Header flag bit: a `weights` section is present (WeightedCsrGraph).
inline constexpr std::uint32_t kSnapshotFlagWeighted = 1u << 0;
/// Header flag bit: the graph is undirected/symmetric. Writers of both
/// versions always set it; readers reject files without it.
inline constexpr std::uint32_t kSnapshotFlagUndirected = 1u << 1;
/// Header flag bit (version 2 only): the `offsets`/`targets` sections are
/// cold-tier compressed and a block index section is present.
inline constexpr std::uint32_t kSnapshotFlagColdTargets = 1u << 2;

/// Version-1 header size in bytes; the first section starts here.
inline constexpr std::size_t kSnapshotHeaderBytes = 128;
/// Version-2 header size in bytes.
inline constexpr std::size_t kSnapshotHeaderBytesV2 = 192;

/// Every section's byte offset is a multiple of this, so mmap-ed section
/// pointers are aligned for their element types (and for cache lines).
inline constexpr std::size_t kSnapshotSectionAlign = 64;

/// The on-disk header, exactly as the first 128 file bytes (little-endian,
/// naturally aligned, no implicit padding). docs/FORMATS.md section
/// "Header layout" states these offsets normatively; the static_asserts
/// after the struct keep the implementation honest.
struct SnapshotHeader {
  unsigned char magic[8];       ///< kSnapshotMagic.
  std::uint32_t version;        ///< kSnapshotVersion.
  std::uint32_t flags;          ///< kSnapshotFlag* bits; others must be 0.
  std::uint64_t num_vertices;   ///< n.
  std::uint64_t num_arcs;       ///< Stored directed arcs (2m).
  std::uint64_t offsets_offset; ///< File offset of the offsets section.
  std::uint64_t offsets_bytes;  ///< == (n + 1) * 8.
  std::uint64_t targets_offset; ///< File offset of the targets section.
  std::uint64_t targets_bytes;  ///< == num_arcs * 4.
  std::uint64_t weights_offset; ///< File offset of weights; 0 if absent.
  std::uint64_t weights_bytes;  ///< == num_arcs * 8 if weighted, else 0.
  std::uint64_t checksum;       ///< FNV-1a-64 over the section payloads.
  unsigned char reserved[40];   ///< Must be zero in version 1.
};

// Byte offsets per docs/FORMATS.md "Header layout" — a mismatch here means
// either the spec or the struct changed without the other.
static_assert(sizeof(SnapshotHeader) == kSnapshotHeaderBytes);
static_assert(offsetof(SnapshotHeader, magic) == 0);
static_assert(offsetof(SnapshotHeader, version) == 8);
static_assert(offsetof(SnapshotHeader, flags) == 12);
static_assert(offsetof(SnapshotHeader, num_vertices) == 16);
static_assert(offsetof(SnapshotHeader, num_arcs) == 24);
static_assert(offsetof(SnapshotHeader, offsets_offset) == 32);
static_assert(offsetof(SnapshotHeader, offsets_bytes) == 40);
static_assert(offsetof(SnapshotHeader, targets_offset) == 48);
static_assert(offsetof(SnapshotHeader, targets_bytes) == 56);
static_assert(offsetof(SnapshotHeader, weights_offset) == 64);
static_assert(offsetof(SnapshotHeader, weights_bytes) == 72);
static_assert(offsetof(SnapshotHeader, checksum) == 80);
static_assert(offsetof(SnapshotHeader, reserved) == 88);

/// The version-2 on-disk header, exactly as the first 192 file bytes
/// (little-endian, naturally aligned, no implicit padding). docs/FORMATS.md
/// section "Version 2" states these offsets normatively. Sections follow in
/// the order offsets, targets, block index (cold tier only), weights, each
/// starting at a 64-byte boundary.
struct SnapshotHeaderV2 {
  unsigned char magic[8];            ///< kSnapshotMagic.
  std::uint32_t version;             ///< kSnapshotVersion2.
  std::uint32_t flags;               ///< kSnapshotFlag* bits; others 0.
  std::uint64_t num_vertices;        ///< n.
  std::uint64_t num_arcs;            ///< Stored directed arcs (2m).
  std::uint64_t offsets_offset;      ///< File offset of the offsets section.
  std::uint64_t offsets_bytes;       ///< Hot: (n+1)*8. Cold: varint stream.
  std::uint64_t targets_offset;      ///< File offset of the targets section.
  std::uint64_t targets_bytes;       ///< Hot: num_arcs*4. Cold: payloads.
  std::uint64_t weights_offset;      ///< File offset of weights; 0 if absent.
  std::uint64_t weights_bytes;       ///< == num_arcs*8 if weighted, else 0.
  std::uint64_t block_index_offset;  ///< Cold: block index offset; hot: 0.
  std::uint64_t block_index_bytes;   ///< Cold: num_blocks*16; hot: 0.
  std::uint32_t block_size;          ///< Cold: arcs per block; hot: 0.
  std::uint32_t reserved0;           ///< Must be zero.
  std::uint64_t offsets_checksum;    ///< FNV-1a-64 of the offsets payload.
  std::uint64_t targets_checksum;    ///< FNV-1a-64 of the targets payload.
  std::uint64_t weights_checksum;    ///< FNV-1a-64 of the weights payload.
  std::uint64_t block_index_checksum; ///< FNV-1a-64 of the index payload.
  std::uint64_t header_checksum;     ///< FNV-1a-64 of header bytes [0,136).
  unsigned char reserved[48];        ///< Must be zero in version 2.
};

/// Byte range the v2 header checksum covers: everything before the
/// `header_checksum` field itself.
inline constexpr std::size_t kSnapshotHeaderV2ChecksumBytes = 136;

// Byte offsets per docs/FORMATS.md "Version 2" — a mismatch here means
// either the spec or the struct changed without the other.
static_assert(sizeof(SnapshotHeaderV2) == kSnapshotHeaderBytesV2);
static_assert(offsetof(SnapshotHeaderV2, magic) == 0);
static_assert(offsetof(SnapshotHeaderV2, version) == 8);
static_assert(offsetof(SnapshotHeaderV2, flags) == 12);
static_assert(offsetof(SnapshotHeaderV2, num_vertices) == 16);
static_assert(offsetof(SnapshotHeaderV2, num_arcs) == 24);
static_assert(offsetof(SnapshotHeaderV2, offsets_offset) == 32);
static_assert(offsetof(SnapshotHeaderV2, offsets_bytes) == 40);
static_assert(offsetof(SnapshotHeaderV2, targets_offset) == 48);
static_assert(offsetof(SnapshotHeaderV2, targets_bytes) == 56);
static_assert(offsetof(SnapshotHeaderV2, weights_offset) == 64);
static_assert(offsetof(SnapshotHeaderV2, weights_bytes) == 72);
static_assert(offsetof(SnapshotHeaderV2, block_index_offset) == 80);
static_assert(offsetof(SnapshotHeaderV2, block_index_bytes) == 88);
static_assert(offsetof(SnapshotHeaderV2, block_size) == 96);
static_assert(offsetof(SnapshotHeaderV2, reserved0) == 100);
static_assert(offsetof(SnapshotHeaderV2, offsets_checksum) == 104);
static_assert(offsetof(SnapshotHeaderV2, targets_checksum) == 112);
static_assert(offsetof(SnapshotHeaderV2, weights_checksum) == 120);
static_assert(offsetof(SnapshotHeaderV2, block_index_checksum) == 128);
static_assert(offsetof(SnapshotHeaderV2, header_checksum) == 136);
static_assert(offsetof(SnapshotHeaderV2, reserved) == 144);

/// Largest admissible cold-tier block size (arcs per block). Bounding it
/// keeps a hostile header from inflating `num_arcs` beyond what the file's
/// actual bytes can back.
inline constexpr std::uint32_t kSnapshotMaxBlockSize = 1u << 22;

/// Storage tier of a version-2 snapshot.
enum class SnapshotTier {
  kHot,   ///< Raw sections, mmap-able zero copy (v1-equivalent behavior).
  kCold,  ///< Compressed offsets/targets with a per-block index.
};

/// How the writer places vertices (and thus arcs into cold-tier blocks).
enum class SnapshotPlacement {
  /// Keep the graph's vertex ids as given (the historical behavior).
  kAsIs,
  /// Relabel vertices in descending-degree order (ties broken by
  /// ascending old id) before writing. High-degree adjacency lists land
  /// in the first cold-tier blocks, so a bounded block cache keeps the
  /// hubs — the lists every traversal touches most — resident.
  /// **Vertex ids in the written file differ from the input graph's**:
  /// new id = rank of the old vertex under (degree desc, old id asc).
  kDegreeDescending,
};

/// Options for the 3-argument `save_snapshot` overloads.
struct SnapshotWriteOptions {
  /// Format version to write: kSnapshotVersion (1, hot only) or
  /// kSnapshotVersion2 (2).
  std::uint32_t version = kSnapshotVersionLatest;
  /// Storage tier; kCold requires version 2.
  SnapshotTier tier = SnapshotTier::kHot;
  /// Arcs per cold-tier block; ignored for the hot tier. Must lie in
  /// [2, kSnapshotMaxBlockSize].
  std::uint32_t block_size = codec::kDefaultBlockSize;
  /// Vertex placement applied before writing (see SnapshotPlacement).
  SnapshotPlacement placement = SnapshotPlacement::kAsIs;
};

/// Version-agnostic decoded header plus file size — what `snapshot_tool
/// info` prints. v1 files populate `checksum` (the whole-file payload
/// checksum) and leave the per-section/block fields zero; v2 files do the
/// reverse.
struct SnapshotInfo {
  std::uint32_t version = 0;            ///< 1 or 2.
  std::uint32_t flags = 0;              ///< kSnapshotFlag* bits.
  std::uint64_t num_vertices = 0;       ///< n.
  std::uint64_t num_arcs = 0;           ///< Stored directed arcs (2m).
  std::uint64_t file_bytes = 0;         ///< Total file size.
  std::uint64_t offsets_offset = 0;     ///< Offsets section file offset.
  std::uint64_t offsets_bytes = 0;      ///< Offsets section payload bytes.
  std::uint64_t targets_offset = 0;     ///< Targets section file offset.
  std::uint64_t targets_bytes = 0;      ///< Targets section payload bytes.
  std::uint64_t weights_offset = 0;     ///< Weights section file offset.
  std::uint64_t weights_bytes = 0;      ///< Weights section payload bytes.
  std::uint64_t block_index_offset = 0; ///< v2 cold: index file offset.
  std::uint64_t block_index_bytes = 0;  ///< v2 cold: index payload bytes.
  std::uint32_t block_size = 0;         ///< v2 cold: arcs per block.
  std::uint64_t checksum = 0;           ///< v1: whole-file payload checksum.

  /// True when the file carries a weights section.
  [[nodiscard]] bool weighted() const {
    return (flags & kSnapshotFlagWeighted) != 0;
  }
  /// True for a version-2 cold-tier (compressed) snapshot.
  [[nodiscard]] bool cold() const {
    return (flags & kSnapshotFlagColdTargets) != 0;
  }

  /// Bytes the graph occupies when fully materialized in memory:
  /// (n + 1) * 8 offsets + num_arcs * 4 targets, plus num_arcs * 8 when
  /// weighted. For a cold file this is what `load_snapshot` allocates and
  /// the yardstick `SessionConfig::memory_budget_bytes` is compared
  /// against; for v1/hot files it equals the section payload bytes.
  [[nodiscard]] std::uint64_t resident_bytes_estimate() const {
    std::uint64_t bytes = (num_vertices + 1) * 8 + num_arcs * 4;
    if (weighted()) bytes += num_arcs * 8;
    return bytes;
  }
};

/// Write `g` as a version-1 snapshot. Overwrites `path`. Throws
/// std::runtime_error on I/O failure.
void save_snapshot(const std::string& path, const CsrGraph& g);
/// Weighted overload; sets kSnapshotFlagWeighted and appends the weights
/// section.
void save_snapshot(const std::string& path, const WeightedCsrGraph& g);

/// Write `g` per `options` (format version + tier + placement). Throws
/// std::runtime_error on I/O failure or inconsistent options (e.g. cold
/// tier with version 1). With SnapshotPlacement::kDegreeDescending the
/// written file's vertex ids are the relabeled ones.
void save_snapshot(const std::string& path, const CsrGraph& g,
                   const SnapshotWriteOptions& options);
/// Weighted overload of the options-taking writer; the weights section is
/// stored raw (f64) in both tiers.
void save_snapshot(const std::string& path, const WeightedCsrGraph& g,
                   const SnapshotWriteOptions& options);

/// The SnapshotPlacement::kDegreeDescending relabeling for `g`: returns
/// `new_of_old` with `new_of_old[v]` = v's new id, i.e. v's rank under
/// (degree descending, old id ascending). Feed it to
/// `apply_vertex_permutation` to build the relabeled graph.
[[nodiscard]] std::vector<vertex_t> degree_descending_permutation(
    const CsrGraph& g);

/// Relabel `g`'s vertices by `new_of_old` (a permutation of [0, n):
/// `new_of_old[old_id]` = new id). The result is the isomorphic graph with
/// each adjacency list re-sorted ascending under the new ids. Throws
/// std::invalid_argument when `new_of_old` is not a permutation of [0, n).
[[nodiscard]] CsrGraph apply_vertex_permutation(
    const CsrGraph& g, std::span<const vertex_t> new_of_old);
/// Weighted counterpart: each arc's weight travels with its (re-sorted)
/// target.
[[nodiscard]] WeightedCsrGraph apply_vertex_permutation(
    const WeightedCsrGraph& g, std::span<const vertex_t> new_of_old);

/// Read an unweighted snapshot (any version, either tier) into owned
/// buffers. Verifies the checksums and the CSR structure; a cold-tier file
/// is fully materialized (every block decoded in parallel) so the returned
/// spans are byte-identical to the hot-tier load. Throws std::runtime_error
/// on any corruption or if the file is weighted.
[[nodiscard]] CsrGraph load_snapshot(const std::string& path);
/// Weighted counterpart of `load_snapshot`; throws if the file carries no
/// weights section.
[[nodiscard]] WeightedCsrGraph load_weighted_snapshot(const std::string& path);

/// mmap `path` (MAP_PRIVATE, read-only) and return a zero-copy view graph
/// whose spans alias the mapping; the mapping lives until the last copy of
/// the returned graph dies. Headers are always validated eagerly (for v2
/// that includes the header checksum); section checksums are verified only
/// when `verify_checksum` is set, because that forces every page resident
/// and defeats lazy mapping (snapshot_tool verify covers it instead). A
/// cold-tier file cannot alias the mapping, so it is materialized exactly
/// like `load_snapshot` (use `storage::PagedGraph` in
/// storage/paged_graph.hpp for bounded-memory access). On hosts without POSIX mmap this falls back to
/// `load_snapshot`.
[[nodiscard]] CsrGraph map_snapshot(const std::string& path,
                                    bool verify_checksum = false);
/// Weighted counterpart of `map_snapshot`.
[[nodiscard]] WeightedCsrGraph map_weighted_snapshot(
    const std::string& path, bool verify_checksum = false);

/// Read and validate only the header (magic, version, flags, section
/// geometry vs file size; for v2 also the header checksum). No payload
/// bytes are read or validated, so this reports the version/tier of any
/// well-headed file in O(1). Throws std::runtime_error on malformed
/// headers.
[[nodiscard]] SnapshotInfo read_snapshot_info(const std::string& path);

/// Full validation for v1 and hot v2 (header, checksums, CSR structure);
/// shallow validation for cold v2: header + all four section checksums +
/// block-index geometry + degree-stream decode, but blocks are NOT
/// decoded (that is `verify_snapshot_deep`). Throws std::runtime_error
/// describing the first failure; returns the header info on success.
SnapshotInfo verify_snapshot(const std::string& path);

/// Deep validation: everything `verify_snapshot` does, plus — for cold
/// files — walking every block (per-block checksum + full entropy decode +
/// structural validation of the reconstructed CSR). For v1/hot files this
/// is identical to `verify_snapshot`. Backs `snapshot_tool verify --deep`.
SnapshotInfo verify_snapshot_deep(const std::string& path);

}  // namespace mpx::io
