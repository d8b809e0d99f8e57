#include "graph/snapshot_codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <string>

namespace mpx::io::codec {
namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("mpx::snapshot: cold block codec: " + what);
}

/// Bits needed to represent v (0 for v == 0).
int bits_needed(std::uint64_t v) {
  return v == 0 ? 0 : 64 - std::countl_zero(v);
}

/// Symbol id of an encoded delta value (see the header's alphabet table).
int symbol_of(std::uint64_t value) {
  const int b = bits_needed(value);
  if (b <= 4) return static_cast<int>(value);
  return 16 + (b - 5);
}

/// Raw payload bits following `sym` (the value's bits minus the implicit
/// leading one); 0 for literal symbols.
constexpr int payload_bits(int sym) {
  return sym < 16 ? 0 : (sym - 16 + 5) - 1;
}

// ---------------------------------------------------------------------------
// MSB-first bitstream
// ---------------------------------------------------------------------------

/// Append-only MSB-first bit writer over a byte vector.
class BitWriter {
 public:
  explicit BitWriter(std::vector<unsigned char>& out) : out_(out) {}

  void put(std::uint64_t bits, int count) {
    // Invariant: count <= 57, so acc never overflows between flushes.
    acc_ = (acc_ << count) | (bits & ((std::uint64_t{1} << count) - 1));
    nbits_ += count;
    while (nbits_ >= 8) {
      nbits_ -= 8;
      out_.push_back(static_cast<unsigned char>(acc_ >> nbits_));
    }
  }

  /// Zero-pad to a byte boundary (the spec requires zero padding).
  void finish() {
    if (nbits_ > 0) {
      out_.push_back(static_cast<unsigned char>(acc_ << (8 - nbits_)));
      nbits_ = 0;
    }
    acc_ = 0;
  }

 private:
  std::vector<unsigned char>& out_;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

/// Big-endian 64-bit load (GCC and Clang fold it into one load and a byte
/// swap).
std::uint64_t load_be64(const unsigned char* p) {
  return std::uint64_t{p[0]} << 56 | std::uint64_t{p[1]} << 48 |
         std::uint64_t{p[2]} << 40 | std::uint64_t{p[3]} << 32 |
         std::uint64_t{p[4]} << 24 | std::uint64_t{p[5]} << 16 |
         std::uint64_t{p[6]} << 8 | std::uint64_t{p[7]};
}

/// Bounded MSB-first bit window over the block bitstream. Counts consumed
/// bits; reads past the end see zero bits, and `overrun()` reports them.
class BitWindow {
 public:
  BitWindow(const unsigned char* begin, std::size_t bytes)
      : p_(begin), bytes_(bytes) {}

  /// The 64 bits from the read position on, MSB-aligned. At least 57 of
  /// them are stream bits (zeros past the end), enough for a code and its
  /// payload bits.
  [[nodiscard]] std::uint64_t peek() const {
    const std::size_t byte = static_cast<std::size_t>(pos_ >> 3);
    std::uint64_t word = 0;
    if (byte + 8 <= bytes_) [[likely]] {
      word = load_be64(p_ + byte);
    } else {
      for (std::size_t i = byte; i < byte + 8; ++i) {
        word = (word << 8) | (i < bytes_ ? p_[i] : 0u);
      }
    }
    return word << (pos_ & 7);
  }

  void consume(int bits) { pos_ += static_cast<std::uint64_t>(bits); }

  /// True once more bits were consumed than the stream holds.
  [[nodiscard]] bool overrun() const { return pos_ > bytes_ * 8; }

  /// True iff the stream ends here modulo zero pad bits: at most 7 pad
  /// bits in the last byte are legal — a whole unconsumed byte would
  /// make the encoding non-canonical, zero or not.
  [[nodiscard]] bool remainder_is_zero_padding() const {
    const std::uint64_t rest = bytes_ * 8 - pos_;
    if (rest >= 8) return false;
    return rest == 0 || (p_[bytes_ - 1] & ((1u << rest) - 1u)) == 0;
  }

 private:
  const unsigned char* p_;
  std::size_t bytes_;
  std::uint64_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Canonical Huffman over the 45-symbol alphabet
// ---------------------------------------------------------------------------

/// Huffman code lengths for `freq`, capped at kBlockMaxCodeLen by halving
/// frequencies and rebuilding (the classic scaling trick; terminates
/// because all-equal frequencies give lengths <= ceil(log2(K)) = 6).
std::array<std::uint8_t, kBlockAlphabet> code_lengths(
    std::array<std::uint64_t, kBlockAlphabet> freq) {
  std::array<std::uint8_t, kBlockAlphabet> len{};
  for (;;) {
    // Two-phase Huffman on an implicit forest: nodes 0..K-1 are symbols,
    // K.. are internal. Simple O(K^2) selection — K is 45.
    constexpr int kMaxNodes = 2 * kBlockAlphabet;
    std::array<std::uint64_t, kMaxNodes> weight{};
    std::array<int, kMaxNodes> parent{};
    std::array<bool, kMaxNodes> alive{};
    parent.fill(-1);
    int live = 0;
    for (int s = 0; s < kBlockAlphabet; ++s) {
      if (freq[s] != 0) {
        weight[s] = freq[s];
        alive[s] = true;
        ++live;
      }
    }
    len.fill(0);
    if (live == 0) return len;
    if (live == 1) {
      for (int s = 0; s < kBlockAlphabet; ++s) {
        if (alive[s]) len[s] = 1;
      }
      return len;
    }
    int next = kBlockAlphabet;
    int remaining = live;
    while (remaining > 1) {
      int lo1 = -1;
      int lo2 = -1;
      for (int i = 0; i < next; ++i) {
        if (!alive[i]) continue;
        if (lo1 < 0 || weight[i] < weight[lo1]) {
          lo2 = lo1;
          lo1 = i;
        } else if (lo2 < 0 || weight[i] < weight[lo2]) {
          lo2 = i;
        }
      }
      alive[lo1] = alive[lo2] = false;
      parent[lo1] = parent[lo2] = next;
      weight[next] = weight[lo1] + weight[lo2];
      alive[next] = true;
      ++next;
      --remaining;
    }
    int maxlen = 0;
    for (int s = 0; s < kBlockAlphabet; ++s) {
      if (freq[s] == 0) continue;
      int d = 0;
      for (int p = s; parent[p] != -1; p = parent[p]) ++d;
      len[s] = static_cast<std::uint8_t>(d);
      maxlen = std::max(maxlen, d);
    }
    if (maxlen <= kBlockMaxCodeLen) return len;
    for (auto& f : freq) {
      if (f != 0) f = (f + 1) / 2;
    }
  }
}

/// Canonical code assignment: symbols sorted by (length, id) take
/// consecutive codes, shorter lengths first. Shared by encoder and
/// decoder so the table pins the codes completely.
struct CanonicalCode {
  // Per symbol: code value.
  std::array<std::uint16_t, kBlockAlphabet> code{};
  std::array<std::uint8_t, kBlockAlphabet> len{};
  // Per length: first canonical code, first index into `order`, count
  // (decoder side).
  std::array<std::uint16_t, kBlockMaxCodeLen + 1> first_code{};
  std::array<std::uint16_t, kBlockMaxCodeLen + 1> first_index{};
  std::array<std::uint16_t, kBlockMaxCodeLen + 1> count{};
  std::array<std::uint8_t, kBlockAlphabet> order{};  // canonical order
};

/// Build the canonical code from per-symbol lengths. Validates the Kraft
/// inequality so an adversarial table cannot produce ambiguous decodes;
/// throws std::runtime_error on violation.
CanonicalCode build_canonical(
    const std::array<std::uint8_t, kBlockAlphabet>& len) {
  CanonicalCode c;
  c.len = len;
  std::uint64_t kraft = 0;  // in units of 2^-kBlockMaxCodeLen
  for (int s = 0; s < kBlockAlphabet; ++s) {
    if (len[s] > kBlockMaxCodeLen) bad("code length exceeds 15");
    if (len[s] != 0) {
      kraft += std::uint64_t{1} << (kBlockMaxCodeLen - len[s]);
      ++c.count[len[s]];
    }
  }
  if (kraft > (std::uint64_t{1} << kBlockMaxCodeLen)) {
    bad("code lengths violate the Kraft inequality");
  }
  std::uint16_t next_code = 0;
  std::uint16_t next_index = 0;
  for (int l = 1; l <= kBlockMaxCodeLen; ++l) {
    next_code = static_cast<std::uint16_t>((next_code + c.count[l - 1]) << 1);
    c.first_code[l] = next_code;
    c.first_index[l] = next_index;
    std::uint16_t assigned = 0;
    for (int s = 0; s < kBlockAlphabet; ++s) {
      if (len[s] == l) {
        c.code[s] = static_cast<std::uint16_t>(next_code + assigned);
        c.order[next_index + assigned] = static_cast<std::uint8_t>(s);
        ++assigned;
      }
    }
    next_index = static_cast<std::uint16_t>(next_index + assigned);
  }
  // Reuse count[l] as the running first_code base above; restore counts
  // for the decoder loop (count was never clobbered — nothing to do).
  return c;
}

/// Code bits resolved by one primary-table lookup; longer codes take the
/// canonical walk over a kBlockMaxCodeLen-bit peek.
constexpr int kTableBits = 10;

/// Packed decode of one code: `symbol | total << 6`, where `total` counts
/// the code's bits plus its raw payload bits (at most 15 + 32). Never 0,
/// since every code is at least one bit long.
int pack_code(int sym, int len) {
  return sym | (len + payload_bits(sym)) << 6;
}

/// How a symbol rebuilds its delta value from the arc's bits (code, then
/// payload, right-aligned): `base | (bits & mask)`. A literal is its own
/// base under an empty mask; a length symbol's base is the implicit
/// leading one above its payload bits.
struct ValueRule {
  std::uint64_t base;
  std::uint64_t mask;
};

constexpr std::array<ValueRule, kBlockAlphabet> kValueRules = [] {
  std::array<ValueRule, kBlockAlphabet> rules{};
  for (int s = 0; s < kBlockAlphabet; ++s) {
    const std::uint64_t lead = std::uint64_t{1} << payload_bits(s);
    rules[static_cast<std::size_t>(s)] =
        s < 16 ? ValueRule{static_cast<std::uint64_t>(s), 0}
               : ValueRule{lead, lead - 1};
  }
  return rules;
}();

/// Primary decode table: indexed by the next kTableBits stream bits, each
/// entry holds the packed decode of the code they start with, or 0 when
/// that code is longer than kTableBits (or no code matches).
using DecodeTable = std::array<std::uint16_t, std::size_t{1} << kTableBits>;

void fill_decode_table(const CanonicalCode& c, DecodeTable& table) {
  table.fill(0);
  for (int s = 0; s < kBlockAlphabet; ++s) {
    const int l = c.len[s];
    if (l == 0 || l > kTableBits) continue;
    const std::size_t first = std::size_t{c.code[s]} << (kTableBits - l);
    std::fill_n(table.begin() + static_cast<std::ptrdiff_t>(first),
                std::size_t{1} << (kTableBits - l),
                static_cast<std::uint16_t>(pack_code(s, l)));
  }
}

/// Canonical walk for the codes longer than kTableBits: `peek` holds the
/// next kBlockMaxCodeLen stream bits. Returns the packed decode, or 0 when
/// no code matches.
int decode_long_code(const CanonicalCode& c, std::uint32_t peek) {
  for (int l = kTableBits + 1; l <= kBlockMaxCodeLen; ++l) {
    const std::uint32_t code = peek >> (kBlockMaxCodeLen - l);
    const std::uint32_t offset = code - c.first_code[l];
    if (code >= c.first_code[l] && offset < c.count[l]) {
      return pack_code(c.order[c.first_index[l] + offset], l);
    }
  }
  return 0;
}

/// Vertex owning arc `arc` (binary search; offsets is monotone with
/// offsets[0] == 0 and offsets[n] == num_arcs, validated by the caller).
std::size_t owner_of_arc(std::span<const edge_t> offsets, edge_t arc) {
  const auto it =
      std::upper_bound(offsets.begin(), offsets.end(), arc);
  return static_cast<std::size_t>(it - offsets.begin()) - 1;
}

}  // namespace

std::uint64_t fnv1a_64(std::uint64_t h, const unsigned char* data,
                       std::size_t bytes) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= data[i];
    h *= kPrime;
  }
  return h;
}

void varint_append(std::uint64_t value, std::vector<unsigned char>& out) {
  while (value >= 0x80) {
    out.push_back(static_cast<unsigned char>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<unsigned char>(value));
}

std::uint64_t varint_read(const unsigned char*& p, const unsigned char* end) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (p == end) bad("varint overruns its section");
    const unsigned char byte = *p++;
    if (shift == 63 && (byte & 0xFE) != 0) bad("overlong varint");
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  bad("overlong varint");
}

void encode_target_block(std::span<const edge_t> offsets,
                         std::span<const vertex_t> targets, edge_t arc_begin,
                         std::uint32_t count,
                         std::vector<unsigned char>& payload,
                         BlockIndexEntry& entry) {
  const std::size_t payload_start = payload.size();
  entry.first_target = targets[static_cast<std::size_t>(arc_begin)];
  entry.count = count;
  entry.byte_len = 0;
  entry.checksum = 0;
  if (count > 1) {
    // Pass 1: materialize the delta values and their symbol frequencies.
    std::vector<std::uint64_t> values;
    values.reserve(count - 1);
    std::array<std::uint64_t, kBlockAlphabet> freq{};
    std::size_t v = owner_of_arc(offsets, arc_begin);
    for (edge_t i = arc_begin; i < arc_begin + count; ++i) {
      while (offsets[v + 1] <= i) ++v;
      if (i == arc_begin) continue;
      const auto cur = static_cast<std::int64_t>(targets[i]);
      const auto prev = static_cast<std::int64_t>(targets[i - 1]);
      const bool run_start = i == offsets[v];
      if (!run_start && cur <= prev) {
        bad("adjacency run not strictly ascending (canonical CSR required)");
      }
      const std::uint64_t value = run_start
                                      ? zigzag_encode(cur - prev)
                                      : static_cast<std::uint64_t>(cur - prev - 1);
      values.push_back(value);
      ++freq[static_cast<std::size_t>(symbol_of(value))];
    }
    // Pass 2: code table + bitstream.
    const auto lengths = code_lengths(freq);
    const CanonicalCode canon = build_canonical(lengths);
    payload.resize(payload_start + kBlockTableBytes, 0);
    for (int s = 0; s < kBlockAlphabet; ++s) {
      payload[payload_start + static_cast<std::size_t>(s) / 2] |=
          static_cast<unsigned char>(lengths[s] << ((s % 2) * 4));
    }
    BitWriter bits(payload);
    for (const std::uint64_t value : values) {
      const int sym = symbol_of(value);
      bits.put(canon.code[sym], canon.len[sym]);
      const int extra = payload_bits(sym);
      if (extra > 0) {
        bits.put(value & ((std::uint64_t{1} << extra) - 1), extra);
      }
    }
    bits.finish();
  }
  entry.byte_len = static_cast<std::uint32_t>(payload.size() - payload_start);
  entry.checksum = static_cast<std::uint32_t>(
      fnv1a_64(kFnvOffsetBasis, payload.data() + payload_start,
               payload.size() - payload_start));
}

void decode_target_block(std::span<const edge_t> offsets, edge_t arc_begin,
                         const BlockIndexEntry& entry,
                         std::span<const unsigned char> payload,
                         vertex_t num_vertices, std::span<vertex_t> out) {
  if (entry.count == 0) bad("block with zero arcs");
  if (out.size() != entry.count) bad("output span does not match count");
  if (payload.size() != entry.byte_len) bad("payload does not match byte_len");
  if (entry.first_target >= num_vertices) {
    bad("block first_target out of range");
  }
  out[0] = entry.first_target;
  if (entry.count == 1) {
    if (entry.byte_len != 0) bad("single-arc block carries payload bytes");
    return;
  }
  if (payload.size() < kBlockTableBytes) {
    bad("payload shorter than the code table");
  }
  std::array<std::uint8_t, kBlockAlphabet> lengths{};
  for (int s = 0; s < kBlockAlphabet; ++s) {
    lengths[s] = static_cast<std::uint8_t>(
        (payload[static_cast<std::size_t>(s) / 2] >> ((s % 2) * 4)) & 0x0F);
  }
  if ((payload[22] >> 4) != 0) bad("nonzero pad nibble in the code table");
  const CanonicalCode canon = build_canonical(lengths);
  DecodeTable table;
  fill_decode_table(canon, table);
  BitWindow bits(payload.data() + kBlockTableBytes,
                 payload.size() - kBlockTableBytes);
  // Run starts are tracked by the next one's arc; the previous target
  // stays in a register (the payload bytes may alias `out`).
  const edge_t* const offs = offsets.data();
  std::size_t v = owner_of_arc(offsets, arc_begin);
  edge_t next_run = offs[v + 1];
  const auto n = static_cast<std::int64_t>(num_vertices);
  std::int64_t prev = entry.first_target;
  std::uint64_t window = bits.peek();
  int code = table[window >> (64 - kTableBits)];
  for (std::uint32_t j = 1; j < entry.count; ++j) {
    const edge_t arc = arc_begin + j;
    if (code == 0) {
      code = decode_long_code(
          canon, static_cast<std::uint32_t>(window >> (64 - kBlockMaxCodeLen)));
      if (code == 0) {
        // A bit-at-a-time reader runs out of stream first when fewer than
        // kBlockMaxCodeLen bits are left.
        bits.consume(kBlockMaxCodeLen);
        bad(bits.overrun() ? "bitstream overruns the block payload"
                           : "bit pattern matches no code");
      }
    }
    const int total = code >> 6;
    const ValueRule rule = kValueRules[static_cast<std::size_t>(code & 0x3F)];
    const std::uint64_t value =
        rule.base | ((window >> (64 - total)) & rule.mask);
    bits.consume(total);
    if (bits.overrun()) bad("bitstream overruns the block payload");
    // The next primary lookup reads the old window: it held >= 57 stream
    // bits and this arc took <= 47, so its next 10 bits are already
    // there. That keeps the reload below off the lookup's critical path.
    code = table[(window << total) >> (64 - kTableBits)];
    window = bits.peek();
    std::int64_t target;
    if (arc == next_run) {
      target = prev + zigzag_decode(value);
      while (offs[v + 1] <= arc) ++v;
      next_run = offs[v + 1];
    } else {
      target = prev + static_cast<std::int64_t>(value) + 1;
    }
    if (target < 0 || target >= n) bad("decoded target out of range");
    out[j] = static_cast<vertex_t>(target);
    prev = target;
  }
  if (!bits.remainder_is_zero_padding()) {
    bad("trailing bytes or nonzero padding after the last symbol");
  }
}

std::vector<unsigned char> encode_degree_section(
    std::span<const edge_t> offsets) {
  std::vector<unsigned char> out;
  out.reserve(offsets.size());
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    varint_append(offsets[v + 1] - offsets[v], out);
  }
  return out;
}

std::vector<edge_t> decode_degree_section(std::span<const unsigned char> bytes,
                                          std::uint64_t num_vertices,
                                          std::uint64_t num_arcs) {
  std::vector<edge_t> offsets(num_vertices + 1);
  offsets[0] = 0;
  const unsigned char* p = bytes.data();
  const unsigned char* end = bytes.data() + bytes.size();
  std::uint64_t sum = 0;
  for (std::uint64_t v = 0; v < num_vertices; ++v) {
    const std::uint64_t degree = varint_read(p, end);
    // Adjacency runs are strictly ascending over [0, n), so no conforming
    // writer produces a degree above n; rejecting here bounds every later
    // allocation by the declared geometry.
    if (degree > num_vertices) bad("vertex degree exceeds num_vertices");
    sum += degree;
    if (sum > num_arcs) bad("degrees overrun num_arcs");
    offsets[v + 1] = sum;
  }
  if (sum != num_arcs) bad("degrees do not sum to num_arcs");
  if (p != end) bad("trailing bytes after the degree sequence");
  return offsets;
}

}  // namespace mpx::io::codec
