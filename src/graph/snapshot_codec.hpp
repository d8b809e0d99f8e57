/// \file
/// \brief Block codec for the cold (compressed) snapshot tier.
///
/// Version-2 snapshots (docs/FORMATS.md, "version 2") may store their
/// `targets` section as fixed-size **blocks** of delta-encoded adjacency,
/// each block entropy-coded with a per-block canonical Huffman code over a
/// small symbol alphabet, plus a 16-byte index entry per block. This header
/// is the pure codec: byte buffers in, byte buffers out, no file I/O, so
/// the corruption-fuzzing suites can drive the decoder directly.
///
/// ## Delta stream
///
/// Arcs of a block are visited in file order. The block's first arc is not
/// encoded (its target is the index entry's `first_target`); every later
/// arc `i` contributes one unsigned symbol value:
///  * if arc `i` starts a vertex's adjacency run (`i == offsets[v]`):
///    `zigzag(targets[i] - targets[i-1])` — runs of different vertices are
///    unordered relative to each other, so the jump may be negative;
///  * otherwise: `targets[i] - targets[i-1] - 1` — within a run adjacency
///    is strictly ascending, so the gap is >= 1 and the `-1` densifies it.
///
/// Decoding therefore needs the (uncompressed, resident) `offsets` array
/// to locate run starts, and re-derives targets as running sums; an in-run
/// step can never decrease, so block-local corruption cannot produce an
/// unsorted run inside a block.
///
/// ## Entropy coding
///
/// Each value is split into a **symbol** and optional raw payload bits:
/// values 0..15 are literal symbols 0..15 (no payload); a value needing
/// `b >= 5` bits is symbol `16 + (b - 5)` followed by the `b - 1` low bits
/// (the leading one-bit is implicit). The 45 symbol code lengths of a
/// canonical Huffman code (lengths <= 15) are stored as nibbles in a
/// 23-byte table at the start of the block payload; an MSB-first bitstream
/// of the `count - 1` coded values follows, zero-padded to a whole byte.
///
/// ## Decoding
///
/// The decoder is table-driven. The block's code lengths build one
/// primary lookup table of 2^10 entries, each naming the symbol a 10-bit
/// prefix starts with and the bits its code plus payload take. The
/// bitstream is read through a 64-bit MSB-first window: one refill per
/// arc yields the code and its <= 32 payload bits together (whole-word
/// loads while 8 bytes remain, then the tail byte by byte, zeros past the
/// end). Codes longer than 10 bits miss the table and take a canonical
/// walk over a 15-bit peek. The window counts consumed bits, so every
/// rejection lands on the same arc as in a bit-at-a-time reading of the
/// spec.
///
/// Every decoder entry point rejects malformed input (overlong reads,
/// invalid code tables, out-of-range targets, trailing garbage) with
/// `std::runtime_error` — never UB, never abort. `tests/test_snapshot_v2.cpp`
/// pins the edge cases (long codes, sub-word streams, byte-exact endings,
/// every truncation and extension). The file-level fuzz sweeps in
/// `tests/test_fuzz.cpp` mostly stop at the per-block checksum, so the
/// codec is fuzzed directly there too: mutated payloads go straight to
/// `decode_target_block` and must match a bit-serial reference decoder
/// on accept vs reject and on the output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/types.hpp"

namespace mpx::io::codec {

/// Number of symbols in the block alphabet: 16 literals + 29 bit-lengths
/// (5..33 — zigzag deltas of 32-bit targets need at most 33 bits).
inline constexpr int kBlockAlphabet = 45;

/// Longest admissible Huffman code, so lengths pack into nibbles.
inline constexpr int kBlockMaxCodeLen = 15;

/// Bytes of the nibble-packed code-length table at the start of every
/// non-empty block payload: 46 nibbles (45 lengths + one zero pad nibble).
inline constexpr std::size_t kBlockTableBytes = 23;

/// Default number of arcs per cold-tier block (`SnapshotWriteOptions`).
inline constexpr std::uint32_t kDefaultBlockSize = 4096;

/// FNV-1a 64-bit over a byte range, continuing from `h` (seed with
/// `kFnvOffsetBasis`). This is the checksum function of both snapshot
/// format versions.
[[nodiscard]] std::uint64_t fnv1a_64(std::uint64_t h, const unsigned char* data,
                                     std::size_t bytes);

/// FNV-1a-64 offset basis (docs/FORMATS.md "Checksum").
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/// LEB128 unsigned varint append: 7 value bits per byte, high bit set on
/// every byte but the last.
void varint_append(std::uint64_t value, std::vector<unsigned char>& out);

/// Bounded LEB128 decode: reads at most 10 bytes from `[p, end)`, advances
/// `p` past the varint. Throws std::runtime_error on truncation or an
/// overlong encoding.
[[nodiscard]] std::uint64_t varint_read(const unsigned char*& p,
                                        const unsigned char* end);

/// Maps a signed delta onto the unsigned varint-friendly line
/// 0, -1, 1, -2, 2, ...
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

/// Inverse of `zigzag_encode`.
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// One 16-byte row of the cold tier's block index. Block `b` covers arcs
/// `[b * block_size, b * block_size + count)`; its payload occupies the
/// next `byte_len` bytes of the targets section (blocks are back to back,
/// in order). docs/FORMATS.md states this layout normatively.
struct BlockIndexEntry {
  std::uint32_t first_target;  ///< Target of the block's first arc.
  std::uint32_t count;         ///< Arcs in the block (== block_size except
                               ///< for the final block).
  std::uint32_t byte_len;      ///< Payload bytes; 0 when `count <= 1`.
  std::uint32_t checksum;      ///< Low 32 bits of FNV-1a-64 of the payload.
};

static_assert(sizeof(BlockIndexEntry) == 16,
              "the v2 spec fixes index entries at 16 bytes");

/// Encode arcs `[arc_begin, arc_begin + count)` of a CSR graph as one cold
/// block: fills `entry` (including the payload checksum) and appends the
/// payload bytes to `payload`. `count` must be >= 1 and the range in
/// bounds; `offsets` is the full CSR offsets array.
void encode_target_block(std::span<const edge_t> offsets,
                         std::span<const vertex_t> targets, edge_t arc_begin,
                         std::uint32_t count,
                         std::vector<unsigned char>& payload,
                         BlockIndexEntry& entry);

/// Decode one cold block into `out` (whose size must equal
/// `entry.count`). `offsets` locates vertex-run starts; `payload` is
/// exactly the block's `byte_len` bytes. Throws std::runtime_error on any
/// malformed payload: bad code table, bitstream overrun, nonzero padding,
/// or a decoded target outside `[0, num_vertices)`. The caller is expected
/// to have verified `entry.checksum` (the reader does; direct codec users
/// such as fuzzers may skip it to reach deeper validation).
void decode_target_block(std::span<const edge_t> offsets, edge_t arc_begin,
                         const BlockIndexEntry& entry,
                         std::span<const unsigned char> payload,
                         vertex_t num_vertices, std::span<vertex_t> out);

/// Encode a degree sequence (the cold tier's offsets section): one varint
/// per vertex holding `offsets[v+1] - offsets[v]`.
[[nodiscard]] std::vector<unsigned char> encode_degree_section(
    std::span<const edge_t> offsets);

/// Decode a cold offsets section back into a CSR offsets array of
/// `num_vertices + 1` entries. The stream must consume every byte exactly,
/// no degree may exceed `num_vertices` (runs are strictly ascending), and
/// the degrees must sum to `num_arcs`; throws std::runtime_error
/// otherwise.
[[nodiscard]] std::vector<edge_t> decode_degree_section(
    std::span<const unsigned char> bytes, std::uint64_t num_vertices,
    std::uint64_t num_arcs);

}  // namespace mpx::io::codec
