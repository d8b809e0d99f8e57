// Randomized property tests ("fuzz-lite"): the parallel primitives and the
// graph builder against their std:: / sequential references over many
// random shapes and sizes. Complements the hand-picked cases in the other
// suites with breadth.
//
// Seeds come from the shared deterministic corpus (tests/support/property.hpp)
// so every ctest run fuzzes the exact same cases; replay one case with
// MPX_TEST_SEED=<n> in the environment.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bfs/sequential_bfs.hpp"
#include "bfs/parallel_bfs.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "graph/snapshot_codec.hpp"
#include "parallel/pack.hpp"
#include "parallel/reduce.hpp"
#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "core/partition.hpp"
#include "support/random.hpp"
#include "tests/support/golden.hpp"
#include "tests/support/invariants.hpp"
#include "tests/support/property.hpp"
#include "tests/support/temp_dir.hpp"

namespace mpx {
namespace {

class FuzzCase : public ::testing::TestWithParam<std::uint64_t> {};

std::size_t random_size(Xoshiro256pp& rng) {
  // Sizes spanning the serial/parallel grain boundary and odd values.
  const std::size_t buckets[] = {0, 1, 3, 100, 2047, 2048, 2049, 70000};
  const std::size_t base = buckets[rng.next_below(8)];
  return base + static_cast<std::size_t>(rng.next_below(17));
}

TEST_P(FuzzCase, ScanMatchesStdExclusiveScan) {
  Xoshiro256pp rng(GetParam());
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = random_size(rng);
    std::vector<std::uint64_t> data(n);
    for (auto& x : data) x = rng.next_below(1000);
    std::vector<std::uint64_t> expected(n);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expected[i] = acc;
      acc += data[i];
    }
    std::vector<std::uint64_t> got = data;
    const std::uint64_t total =
        exclusive_scan_inplace(std::span<std::uint64_t>(got));
    ASSERT_EQ(total, acc) << "n=" << n;
    ASSERT_EQ(got, expected) << "n=" << n;
  }
}

TEST_P(FuzzCase, SortMatchesStdSort) {
  Xoshiro256pp rng(GetParam() ^ 0xabcdef);
  for (int round = 0; round < 5; ++round) {
    const std::size_t n = random_size(rng);
    std::vector<std::uint64_t> data(n);
    for (auto& x : data) x = rng.next_below(50);  // heavy duplicates
    std::vector<std::uint64_t> expected = data;
    std::sort(expected.begin(), expected.end());
    parallel_sort(std::span<std::uint64_t>(data));
    ASSERT_EQ(data, expected) << "n=" << n;
  }
}

TEST_P(FuzzCase, PackMatchesStdCopyIf) {
  Xoshiro256pp rng(GetParam() ^ 0x777);
  for (int round = 0; round < 5; ++round) {
    const std::size_t n = random_size(rng);
    std::vector<std::uint8_t> keep(n);
    for (auto& k : keep) k = rng.next_below(2) != 0 ? 1 : 0;
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      if (keep[i]) expected.push_back(i);
    }
    const auto got =
        pack_indices(n, [&](std::size_t i) { return keep[i] != 0; });
    ASSERT_EQ(got, expected) << "n=" << n;
  }
}

TEST_P(FuzzCase, ReduceMatchesStdAccumulate) {
  Xoshiro256pp rng(GetParam() ^ 0x5151);
  for (int round = 0; round < 5; ++round) {
    const std::size_t n = random_size(rng);
    std::vector<std::uint64_t> data(n);
    for (auto& x : data) x = rng.next_below(1 << 20);
    const std::uint64_t expected =
        std::accumulate(data.begin(), data.end(), std::uint64_t{0});
    const std::uint64_t got = parallel_sum<std::uint64_t>(
        std::size_t{0}, n, [&](std::size_t i) { return data[i]; });
    ASSERT_EQ(got, expected) << "n=" << n;
  }
}

TEST_P(FuzzCase, BuilderIsIdempotentOnRandomEdgeSoup) {
  Xoshiro256pp rng(GetParam() ^ 0x1234);
  const vertex_t n = 2 + static_cast<vertex_t>(rng.next_below(60));
  const std::size_t m = rng.next_below(200);
  std::vector<Edge> soup;
  for (std::size_t i = 0; i < m; ++i) {
    soup.push_back({static_cast<vertex_t>(rng.next_below(n)),
                    static_cast<vertex_t>(rng.next_below(n))});
  }
  const CsrGraph g = build_undirected(n, std::span<const Edge>(soup));
  ASSERT_TRUE(g.is_symmetric());
  // Rebuilding from the canonical edge list reproduces the graph.
  const std::vector<Edge> canonical = edge_list(g);
  const CsrGraph g2 = build_undirected(n, std::span<const Edge>(canonical));
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  ASSERT_TRUE(std::equal(g2.targets().begin(), g2.targets().end(),
                         g.targets().begin()));
  // Degrees count each neighbor once.
  for (vertex_t v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    ASSERT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
  }
}

TEST_P(FuzzCase, ParallelBfsMatchesSequentialOnRandomGraphs) {
  Xoshiro256pp rng(GetParam() ^ 0x9e37);
  const vertex_t n = 2 + static_cast<vertex_t>(rng.next_below(300));
  const std::size_t m = rng.next_below(4 * static_cast<std::size_t>(n));
  std::vector<Edge> soup;
  for (std::size_t i = 0; i < m; ++i) {
    soup.push_back({static_cast<vertex_t>(rng.next_below(n)),
                    static_cast<vertex_t>(rng.next_below(n))});
  }
  const CsrGraph g = build_undirected(n, std::span<const Edge>(soup));
  const vertex_t source = static_cast<vertex_t>(rng.next_below(n));
  const auto expected = bfs_distances(g, source);
  ASSERT_EQ(parallel_bfs(g, source, BfsStrategy::kTopDown).dist, expected);
  ASSERT_EQ(parallel_bfs(g, source, BfsStrategy::kDirectionOptimizing).dist,
            expected);
}

TEST_P(FuzzCase, PartitionInvariantsOnRandomGraphs) {
  Xoshiro256pp rng(GetParam() ^ 0xdecaf);
  for (int round = 0; round < 4; ++round) {
    const CsrGraph g = mpx::testing::random_graph(rng, 400);
    PartitionOptions opt;
    opt.beta = 0.05 + 0.45 * rng.next_double();
    opt.seed = rng();
    const Decomposition dec = partition(g, opt);
    ASSERT_TRUE(mpx::testing::check_decomposition_invariants(
        dec, g, {.beta = opt.beta}))
        << "n=" << g.num_vertices() << " beta=" << opt.beta
        << " seed=" << opt.seed;
  }
}

TEST_P(FuzzCase, SnapshotReadersThrowOrSucceedOnMutatedBytes) {
  // Generator-driven decoder fuzzing over the checked-in v2 snapshot seed
  // corpus (tests/golden/*_v2*.mpxs, hot and cold, weighted and not): a
  // burst of random mutations — byte flips, truncations, extensions,
  // splices — is applied to a corpus member and every reader entry point
  // must either succeed or throw std::runtime_error. Any crash, abort or
  // foreign exception on arbitrary bytes is a format-conformance bug.
  const char* corpus[] = {"grid_3x3_v2.mpxs", "grid_3x3_v2_cold.mpxs",
                          "grid_3x3_weighted_v2_cold.mpxs",
                          "grid_16x16_v2_cold.mpxs"};
  mpx::testing::TempDir tmp("fuzz-snapshot");
  const std::string path = tmp.file("mutant.mpxs");
  Xoshiro256pp rng(GetParam() ^ 0x5a9);
  for (int round = 0; round < 24; ++round) {
    std::string bytes = mpx::testing::read_file_or_fail(
        mpx::testing::golden_path(corpus[rng.next_below(4)]));
    const std::size_t mutations = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < mutations && !bytes.empty(); ++i) {
      switch (rng.next_below(4)) {
        case 0:  // bit flip
          bytes[rng.next_below(bytes.size())] ^=
              static_cast<char>(1u << rng.next_below(8));
          break;
        case 1:  // byte overwrite
          bytes[rng.next_below(bytes.size())] =
              static_cast<char>(rng.next_below(256));
          break;
        case 2:  // truncation
          bytes.resize(rng.next_below(bytes.size() + 1));
          break;
        default:  // extension with junk
          bytes.append(1 + rng.next_below(64),
                       static_cast<char>(rng.next_below(256)));
          break;
      }
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const auto probe = [&](auto&& fn) {
      try {
        fn();
      } catch (const std::runtime_error&) {
        // Rejection is the expected outcome for most mutants.
      }
    };
    probe([&] { (void)io::read_snapshot_info(path); });
    probe([&] { (void)io::verify_snapshot(path); });
    probe([&] { (void)io::verify_snapshot_deep(path); });
    probe([&] { (void)io::load_snapshot(path); });
    probe([&] { (void)io::load_weighted_snapshot(path); });
    probe([&] { (void)io::map_snapshot(path); });
  }
}

/// Bit-at-a-time cold-block decoder transcribed from docs/FORMATS.md
/// "Cold tier encoding": the differential oracle for the codec's
/// table-driven decoder. Returns nullopt wherever the spec says a decoder
/// must reject the block.
std::optional<std::vector<vertex_t>> reference_decode_block(
    std::span<const edge_t> offsets, edge_t arc_begin,
    const io::codec::BlockIndexEntry& entry,
    std::span<const unsigned char> payload, vertex_t n) {
  if (entry.count == 0 || entry.first_target >= n) return std::nullopt;
  std::vector<vertex_t> out = {entry.first_target};
  if (entry.count == 1) {
    if (!payload.empty()) return std::nullopt;
    return out;
  }
  // 23-byte table: 45 code lengths, low nibble first, a zero 46th nibble.
  if (payload.size() < 23 || (payload[22] >> 4) != 0) return std::nullopt;
  int len[45];
  std::uint64_t kraft = 0;
  for (int s = 0; s < 45; ++s) {
    len[s] = (payload[s / 2] >> (4 * (s % 2))) & 0xF;
    if (len[s] != 0) kraft += std::uint64_t{1} << (15 - len[s]);
  }
  if (kraft > (std::uint64_t{1} << 15)) return std::nullopt;
  // Canonical codes: by (length, symbol), consecutive within a length.
  std::uint32_t code[45] = {};
  std::uint32_t next = 0;
  for (int l = 1; l <= 15; ++l) {
    for (int s = 0; s < 45; ++s) {
      if (len[s] == l) code[s] = next++;
    }
    next <<= 1;
  }
  std::size_t bit = 23 * 8;
  const std::size_t end_bit = payload.size() * 8;
  const auto read_bit = [&](std::uint32_t& b) {
    if (bit == end_bit) return false;
    b = (payload[bit / 8] >> (7 - bit % 8)) & 1u;
    ++bit;
    return true;
  };
  std::int64_t prev = entry.first_target;
  for (edge_t arc = arc_begin + 1; arc < arc_begin + entry.count; ++arc) {
    std::uint32_t acc = 0;
    int sym = -1;
    for (int l = 1; l <= 15 && sym < 0; ++l) {
      std::uint32_t b = 0;
      if (!read_bit(b)) return std::nullopt;
      acc = acc << 1 | b;
      for (int s = 0; s < 45; ++s) {
        if (len[s] == l && code[s] == acc) sym = s;
      }
    }
    if (sym < 0) return std::nullopt;
    // Symbol 16 + k: a (5 + k)-bit value, its leading one implicit.
    std::uint64_t value = static_cast<std::uint64_t>(sym);
    if (sym >= 16) {
      value = 1;
      for (int k = 0; k < sym - 16 + 4; ++k) {
        std::uint32_t b = 0;
        if (!read_bit(b)) return std::nullopt;
        value = value << 1 | b;
      }
    }
    const bool run_start =
        std::binary_search(offsets.begin(), offsets.end(), arc);
    const std::int64_t target =
        run_start ? prev + (static_cast<std::int64_t>(value >> 1) ^
                            -static_cast<std::int64_t>(value & 1))
                  : prev + static_cast<std::int64_t>(value) + 1;
    if (target < 0 || target >= static_cast<std::int64_t>(n)) {
      return std::nullopt;
    }
    out.push_back(static_cast<vertex_t>(target));
    prev = target;
  }
  // Zero padding to the byte boundary, no whole unconsumed byte.
  if (end_bit - bit >= 8) return std::nullopt;
  for (std::uint32_t b = 0; read_bit(b);) {
    if (b != 0) return std::nullopt;
  }
  return out;
}

TEST_P(FuzzCase, ColdBlockDecoderMatchesBitSerialReference) {
  // Codec-level fuzzing below the per-block checksum: encode blocks of
  // grid, rmat and random graphs, mutate their payloads (bit flips,
  // truncation, extension, code-table nibble edits) and decode them
  // directly. Each decode must throw std::runtime_error or return targets
  // in [0, n), and must agree with the bit-serial reference on accept vs
  // reject and on the output. Payloads sit in heap buffers of exactly
  // their size, so the sanitizer build sees any over-read.
  Xoshiro256pp rng(GetParam() ^ 0xc01d);
  const CsrGraph graphs[] = {
      generators::grid2d(20 + static_cast<vertex_t>(rng.next_below(40)),
                         20 + static_cast<vertex_t>(rng.next_below(40))),
      generators::rmat(9 + static_cast<unsigned>(rng.next_below(3)), 8.0,
                       rng()),
      mpx::testing::random_graph(rng, 3000)};
  const std::uint32_t block_sizes[] = {2, 3, 7, 64, 4096};
  for (const CsrGraph& g : graphs) {
    const auto offsets = g.offsets();
    const edge_t m = g.num_arcs();
    if (m == 0) continue;
    for (const std::uint32_t block_size : block_sizes) {
      const edge_t blocks = (m + block_size - 1) / block_size;
      for (int pick = 0; pick < 6; ++pick) {
        const edge_t arc_begin = rng.next_below(blocks) * block_size;
        const auto count = static_cast<std::uint32_t>(
            std::min<edge_t>(block_size, m - arc_begin));
        std::vector<unsigned char> payload;
        io::codec::BlockIndexEntry entry{};
        io::codec::encode_target_block(offsets, g.targets(), arc_begin, count,
                                       payload, entry);
        for (int trial = 0; trial < 4; ++trial) {
          std::vector<unsigned char> bytes = payload;
          const std::size_t mutations = trial == 0 ? 0 : 1 + rng.next_below(3);
          for (std::size_t i = 0; i < mutations; ++i) {
            const std::uint64_t kind = bytes.empty() ? 3 : rng.next_below(5);
            if (kind == 0) {  // bit flip anywhere
              bytes[rng.next_below(bytes.size())] ^=
                  static_cast<unsigned char>(1u << rng.next_below(8));
            } else if (kind == 1 && bytes.size() > 23) {  // flip in stream
              bytes[23 + rng.next_below(bytes.size() - 23)] ^=
                  static_cast<unsigned char>(1u << rng.next_below(8));
            } else if (kind == 2) {  // truncation, half of them near the end
              const std::size_t near_end =
                  1 + rng.next_below(std::min<std::size_t>(bytes.size(), 8));
              const std::size_t cut = rng.next_below(2) == 0
                                          ? rng.next_below(bytes.size() + 1)
                                          : near_end;
              bytes.resize(bytes.size() - cut);
            } else if (kind == 3) {  // extension
              for (std::uint64_t k = 1 + rng.next_below(3); k > 0; --k) {
                const auto junk =
                    static_cast<unsigned char>(rng.next_below(256));
                bytes.push_back(rng.next_below(2) == 0 ? 0 : junk);
              }
            } else {  // code-table nibble edit
              const std::uint64_t nibble = rng.next_below(46);
              if (nibble / 2 >= bytes.size()) continue;
              const int shift = 4 * static_cast<int>(nibble % 2);
              unsigned char& byte = bytes[nibble / 2];
              byte = static_cast<unsigned char>(
                  (byte & ~(0xF << shift)) | (rng.next_below(16) << shift));
            }
          }
          io::codec::BlockIndexEntry mutated = entry;
          mutated.byte_len = static_cast<std::uint32_t>(bytes.size());
          const auto exact = std::make_unique<unsigned char[]>(bytes.size());
          std::copy(bytes.begin(), bytes.end(), exact.get());
          const std::span<const unsigned char> view{exact.get(), bytes.size()};

          std::optional<std::vector<vertex_t>> got;
          try {
            std::vector<vertex_t> out(count);
            io::codec::decode_target_block(offsets, arc_begin, mutated, view,
                                           g.num_vertices(), out);
            got = std::move(out);
          } catch (const std::runtime_error&) {
            // Rejection; the reference must reject too.
          }
          const auto want = reference_decode_block(offsets, arc_begin, mutated,
                                                   view, g.num_vertices());
          ASSERT_EQ(got.has_value(), want.has_value())
              << "n=" << g.num_vertices() << " block_size=" << block_size
              << " arc_begin=" << arc_begin << " trial=" << trial;
          if (!got) continue;
          ASSERT_EQ(*got, *want) << "block_size=" << block_size
                                 << " arc_begin=" << arc_begin;
          for (const vertex_t t : *got) ASSERT_LT(t, g.num_vertices());
          if (trial == 0) {
            ASSERT_TRUE(std::equal(got->begin(), got->end(),
                                   g.targets().begin() +
                                       static_cast<std::ptrdiff_t>(arc_begin)));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzCase,
    ::testing::ValuesIn(mpx::testing::replay_or(mpx::testing::seed_corpus(8))));

}  // namespace
}  // namespace mpx
