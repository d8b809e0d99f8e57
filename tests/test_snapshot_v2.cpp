// Tests for version 2 of the .mpxs snapshot format (src/graph/snapshot.*,
// src/graph/snapshot_codec.*, specified in docs/FORMATS.md "Version 2"):
// the 192-byte checksummed header layout, the format-conformance matrix
// the spec's versioning rules demand (cross-version rejection naming both
// versions, unknown flags, nonzero reserved bytes, header-only info),
// tier round trips (hot save -> cold convert -> load must reproduce the
// sections byte-identically), golden files pinning both tiers' on-disk
// bytes, decomposition identity on cold-loaded graphs across thread
// counts, and the corruption batteries: a per-byte truncation sweep over
// whole fixtures, a seeded bit-flip property, block-index attacks behind
// re-sealed checksums, and direct codec-level malformed input.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/partition.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "graph/snapshot_blocks.hpp"
#include "parallel/thread_env.hpp"
#include "support/random.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/golden.hpp"
#include "tests/support/property.hpp"
#include "tests/support/temp_dir.hpp"

namespace mpx {
namespace {

using mpx::testing::golden_path;
using mpx::testing::NamedGraph;
using mpx::testing::read_file_or_fail;
using mpx::testing::TempDir;

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_same_graph(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_arcs(), b.num_arcs());
  EXPECT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(),
                         b.offsets().begin()));
  EXPECT_TRUE(std::equal(a.targets().begin(), a.targets().end(),
                         b.targets().begin()));
}

/// Calls `fn` and asserts it throws std::runtime_error whose message
/// contains every string in `needles` — the conformance matrix checks the
/// *wording* the spec mandates, not just that something threw.
template <typename Fn>
void expect_throws_with(Fn&& fn, std::vector<std::string> needles) {
  try {
    fn();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "message \"" << what << "\" lacks \"" << needle << "\"";
    }
  }
}

/// Re-seals a mutated v2 file's header checksum so tampering with header
/// fields reaches the validators *behind* the checksum gate.
void reseal_header_v2(std::string& file) {
  ASSERT_GE(file.size(), io::kSnapshotHeaderBytesV2);
  const std::uint64_t checksum = io::codec::fnv1a_64(
      io::codec::kFnvOffsetBasis,
      reinterpret_cast<const unsigned char*>(file.data()),
      io::kSnapshotHeaderV2ChecksumBytes);
  std::memcpy(file.data() + offsetof(io::SnapshotHeaderV2, header_checksum),
              &checksum, sizeof(checksum));
}

/// Re-seals the block-index section checksum (after index tampering) and
/// then the header checksum that covers it.
void reseal_block_index_v2(std::string& file) {
  io::SnapshotHeaderV2 h{};
  std::memcpy(&h, file.data(), sizeof(h));
  const std::uint64_t checksum = io::codec::fnv1a_64(
      io::codec::kFnvOffsetBasis,
      reinterpret_cast<const unsigned char*>(file.data()) +
          h.block_index_offset,
      h.block_index_bytes);
  std::memcpy(
      file.data() + offsetof(io::SnapshotHeaderV2, block_index_checksum),
      &checksum, sizeof(checksum));
  reseal_header_v2(file);
}

/// The v2 fixture corpus checked into tests/golden/.
std::vector<std::string> v2_golden_names() {
  return {"grid_3x3_v2.mpxs", "grid_3x3_v2_cold.mpxs",
          "grid_3x3_weighted_v2_cold.mpxs", "grid_16x16_v2_cold.mpxs"};
}

// ---------------------------------------------------------------------------
// Header layout + golden bytes
// ---------------------------------------------------------------------------

TEST(SnapshotV2, HeaderLayoutMatchesSpec) {
  // docs/FORMATS.md "Version 2 header layout" states these byte offsets;
  // the static_asserts in graph/snapshot.hpp pin the struct, this test
  // pins the actual file bytes of both tiers.
  TempDir tmp("snapv2");
  const CsrGraph g = generators::path(4);  // the spec's worked example
  for (const io::SnapshotTier tier :
       {io::SnapshotTier::kHot, io::SnapshotTier::kCold}) {
    SCOPED_TRACE(tier == io::SnapshotTier::kHot ? "hot" : "cold");
    const std::string path = tmp.file("p4.mpxs");
    io::SnapshotWriteOptions options;
    options.tier = tier;
    options.block_size = 4;
    io::save_snapshot(path, g, options);
    const std::string file = read_file_or_fail(path);
    ASSERT_GE(file.size(), io::kSnapshotHeaderBytesV2);

    EXPECT_EQ(std::memcmp(file.data(), "MPXSNAP\0", 8), 0);
    std::uint32_t version = 0;
    std::memcpy(&version, file.data() + 8, 4);
    EXPECT_EQ(version, io::kSnapshotVersion2);
    std::uint32_t flags = 0;
    std::memcpy(&flags, file.data() + 12, 4);
    const bool cold = tier == io::SnapshotTier::kCold;
    EXPECT_EQ(flags, io::kSnapshotFlagUndirected |
                         (cold ? io::kSnapshotFlagColdTargets : 0u));
    std::uint64_t n = 0;
    std::memcpy(&n, file.data() + 16, 8);
    EXPECT_EQ(n, 4u);
    std::uint64_t arcs = 0;
    std::memcpy(&arcs, file.data() + 24, 8);
    EXPECT_EQ(arcs, 6u);
    std::uint64_t offsets_offset = 0;
    std::memcpy(&offsets_offset, file.data() + 32, 8);
    EXPECT_EQ(offsets_offset, 192u);
    std::uint32_t block_size = 0;
    std::memcpy(&block_size, file.data() + 96, 4);
    EXPECT_EQ(block_size, cold ? 4u : 0u);
    std::uint32_t reserved0 = ~0u;
    std::memcpy(&reserved0, file.data() + 100, 4);
    EXPECT_EQ(reserved0, 0u);
    // The header carries its own checksum over bytes [0, 136).
    std::uint64_t header_checksum = 0;
    std::memcpy(&header_checksum, file.data() + 136, 8);
    EXPECT_EQ(header_checksum,
              io::codec::fnv1a_64(
                  io::codec::kFnvOffsetBasis,
                  reinterpret_cast<const unsigned char*>(file.data()),
                  io::kSnapshotHeaderV2ChecksumBytes));
    // Sections are 64-byte aligned and the file ends on a boundary.
    EXPECT_EQ(file.size() % io::kSnapshotSectionAlign, 0u);
    // Trailing reserved bytes [144, 192) are zero.
    for (std::size_t i = 144; i < 192; ++i) {
      ASSERT_EQ(file[i], 0) << "reserved byte " << i;
    }
  }
}

TEST(SnapshotV2, GoldenFilesMatchWriter) {
  // Pins the v2 on-disk bytes of both tiers. Regenerate deliberately with
  // build/regen_golden after a spec + version bump.
  TempDir tmp("snapv2");
  const CsrGraph g3 = generators::grid2d(3, 3);

  io::SnapshotWriteOptions hot;
  hot.tier = io::SnapshotTier::kHot;
  const std::string hot_path = tmp.file("hot.mpxs");
  io::save_snapshot(hot_path, g3, hot);
  EXPECT_EQ(read_file_or_fail(hot_path),
            read_file_or_fail(golden_path("grid_3x3_v2.mpxs")));

  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  cold.block_size = 8;
  const std::string cold_path = tmp.file("cold.mpxs");
  io::save_snapshot(cold_path, g3, cold);
  EXPECT_EQ(read_file_or_fail(cold_path),
            read_file_or_fail(golden_path("grid_3x3_v2_cold.mpxs")));

  const std::string wcold_path = tmp.file("wcold.mpxs");
  io::save_snapshot(wcold_path, mpx::testing::grid3x3_weighted_reference(),
                    cold);
  EXPECT_EQ(read_file_or_fail(wcold_path),
            read_file_or_fail(golden_path("grid_3x3_weighted_v2_cold.mpxs")));

  io::SnapshotWriteOptions cold64;
  cold64.tier = io::SnapshotTier::kCold;
  cold64.block_size = 64;
  const std::string g16_path = tmp.file("g16.mpxs");
  io::save_snapshot(g16_path, generators::grid2d(16, 16), cold64);
  EXPECT_EQ(read_file_or_fail(g16_path),
            read_file_or_fail(golden_path("grid_16x16_v2_cold.mpxs")));
}

TEST(SnapshotV2, GoldenFilesParseBackToSameGraph) {
  const CsrGraph g3 = generators::grid2d(3, 3);
  expect_same_graph(io::load_snapshot(golden_path("grid_3x3_v2.mpxs")), g3);
  expect_same_graph(io::load_snapshot(golden_path("grid_3x3_v2_cold.mpxs")),
                    g3);
  expect_same_graph(io::map_snapshot(golden_path("grid_3x3_v2_cold.mpxs")),
                    g3);
  expect_same_graph(
      io::load_snapshot(golden_path("grid_16x16_v2_cold.mpxs")),
      generators::grid2d(16, 16));

  const WeightedCsrGraph wg = mpx::testing::grid3x3_weighted_reference();
  const WeightedCsrGraph back = io::load_weighted_snapshot(
      golden_path("grid_3x3_weighted_v2_cold.mpxs"));
  expect_same_graph(back.topology(), wg.topology());
  EXPECT_TRUE(std::equal(back.weights().begin(), back.weights().end(),
                         wg.weights().begin()));
}

// ---------------------------------------------------------------------------
// Format-conformance matrix (docs/FORMATS.md versioning rules)
// ---------------------------------------------------------------------------

TEST(SnapshotV2Conformance, UnknownVersionsRejectedNamingBothVersions) {
  // Rule: a reader encountering a version it does not implement must
  // reject, and the diagnostic must name both the file's version and the
  // supported set. Exercised across the whole golden corpus.
  TempDir tmp("snapv2");
  std::vector<std::string> corpus = v2_golden_names();
  corpus.emplace_back("grid_3x3.mpxs");           // v1
  corpus.emplace_back("grid_3x3_weighted.mpxs");  // v1 weighted
  for (const std::string& name : corpus) {
    for (const std::uint32_t fake_version : {0u, 3u, 7u, 255u}) {
      SCOPED_TRACE(name + " as version " + std::to_string(fake_version));
      std::string bytes = read_file_or_fail(golden_path(name));
      std::memcpy(bytes.data() + 8, &fake_version, 4);
      const std::string path = tmp.file("ver.mpxs");
      write_file(path, bytes);
      const std::vector<std::string> needles = {
          "unsupported format version " + std::to_string(fake_version),
          "versions 1 and 2"};
      expect_throws_with([&] { (void)io::load_snapshot(path); }, needles);
      expect_throws_with([&] { (void)io::read_snapshot_info(path); },
                         needles);
      expect_throws_with([&] { (void)io::verify_snapshot(path); }, needles);
    }
  }
}

TEST(SnapshotV2Conformance, UnknownFlagBitsRejected) {
  // Rule: flag bits a reader does not understand are a hard error even
  // behind a valid header checksum (they may change the payload meaning).
  TempDir tmp("snapv2");
  for (const std::string& name : v2_golden_names()) {
    for (const std::uint32_t bad_bit : {1u << 3, 1u << 15, 1u << 31}) {
      SCOPED_TRACE(name + " flag bit " + std::to_string(bad_bit));
      std::string bytes = read_file_or_fail(golden_path(name));
      std::uint32_t flags = 0;
      std::memcpy(&flags, bytes.data() + 12, 4);
      flags |= bad_bit;
      std::memcpy(bytes.data() + 12, &flags, 4);
      reseal_header_v2(bytes);
      const std::string path = tmp.file("flags.mpxs");
      write_file(path, bytes);
      expect_throws_with([&] { (void)io::load_snapshot(path); },
                         {"unknown flag bits"});
      expect_throws_with([&] { (void)io::read_snapshot_info(path); },
                         {"unknown flag bits"});
    }
  }
}

TEST(SnapshotV2Conformance, NonzeroReservedBytesRejected) {
  // Rule: reserved header bytes must be zero so future versions can claim
  // them; both reserved0 (offset 100) and reserved[48] (offset 144+).
  TempDir tmp("snapv2");
  for (const std::string& name : v2_golden_names()) {
    for (const std::size_t at : {std::size_t{100}, std::size_t{144},
                                 std::size_t{167}, std::size_t{191}}) {
      SCOPED_TRACE(name + " reserved byte " + std::to_string(at));
      std::string bytes = read_file_or_fail(golden_path(name));
      bytes[at] = 1;
      reseal_header_v2(bytes);
      const std::string path = tmp.file("reserved.mpxs");
      write_file(path, bytes);
      expect_throws_with([&] { (void)io::load_snapshot(path); },
                         {"nonzero reserved header bytes"});
      expect_throws_with([&] { (void)io::read_snapshot_info(path); },
                         {"nonzero reserved header bytes"});
    }
  }
}

TEST(SnapshotV2Conformance, HeaderChecksumGuardsEveryHeaderField) {
  // Without re-sealing, any header mutation — even in fields with
  // otherwise-valid values — fails the header checksum first.
  TempDir tmp("snapv2");
  std::string bytes = read_file_or_fail(golden_path("grid_3x3_v2_cold.mpxs"));
  bytes[17] ^= 0x01;  // num_vertices, second byte
  const std::string path = tmp.file("hdr.mpxs");
  write_file(path, bytes);
  expect_throws_with([&] { (void)io::load_snapshot(path); },
                     {"header checksum mismatch"});
}

TEST(SnapshotV2Conformance, InfoReportsVersionWithoutPayloadValidation) {
  // Rule: read_snapshot_info validates only the header, so it must
  // succeed — and report the right version/tier — on a file whose payload
  // is corrupt, while the loading readers reject the same file.
  TempDir tmp("snapv2");
  struct Case {
    const char* name;
    std::uint32_t version;
    bool cold;
  };
  for (const Case& c : {Case{"grid_3x3.mpxs", 1, false},
                        Case{"grid_3x3_v2.mpxs", 2, false},
                        Case{"grid_3x3_v2_cold.mpxs", 2, true}}) {
    SCOPED_TRACE(c.name);
    std::string bytes = read_file_or_fail(golden_path(c.name));
    const std::size_t header_bytes = c.version == 1
                                         ? io::kSnapshotHeaderBytes
                                         : io::kSnapshotHeaderBytesV2;
    bytes[header_bytes + 1] ^= 0x40;  // first section payload byte flipped
    const std::string path = tmp.file("payload.mpxs");
    write_file(path, bytes);
    const io::SnapshotInfo info = io::read_snapshot_info(path);
    EXPECT_EQ(info.version, c.version);
    EXPECT_EQ(info.cold(), c.cold);
    EXPECT_EQ(info.num_vertices, 9u);
    EXPECT_THROW((void)io::load_snapshot(path), std::runtime_error);
    EXPECT_THROW((void)io::verify_snapshot(path), std::runtime_error);
  }
}

TEST(SnapshotV2Conformance, VersionFieldSelectsHeaderSize) {
  // A 128-byte v1-sized file relabeled version 2 must be rejected as
  // shorter than the v2 header, not parsed with garbage v2 fields.
  TempDir tmp("snapv2");
  std::string bytes =
      read_file_or_fail(golden_path("grid_3x3.mpxs")).substr(0, 128);
  bytes[8] = 2;
  const std::string path = tmp.file("short.mpxs");
  write_file(path, bytes);
  expect_throws_with([&] { (void)io::read_snapshot_info(path); },
                     {"192-byte version-2 header"});
}

// ---------------------------------------------------------------------------
// Tier round trips
// ---------------------------------------------------------------------------

TEST(SnapshotV2, TierConversionReproducesSectionsByteIdentically) {
  // Hot save -> load -> cold save -> load -> hot save again: the final hot
  // bytes equal the first, so the cold tier is lossless at the byte level,
  // and the loaded spans match the original graph exactly.
  TempDir tmp("snapv2");
  for (const NamedGraph& ng : mpx::testing::small_graphs()) {
    SCOPED_TRACE(ng.name);
    io::SnapshotWriteOptions hot;
    hot.tier = io::SnapshotTier::kHot;
    io::SnapshotWriteOptions cold;
    cold.tier = io::SnapshotTier::kCold;
    cold.block_size = 16;  // force multi-block layouts on small fixtures

    const std::string hot_a = tmp.file(ng.name + "_a.mpxs");
    io::save_snapshot(hot_a, ng.graph, hot);
    const std::string cold_path = tmp.file(ng.name + "_cold.mpxs");
    io::save_snapshot(cold_path, io::load_snapshot(hot_a), cold);

    const CsrGraph from_cold = io::load_snapshot(cold_path);
    expect_same_graph(from_cold, ng.graph);

    const std::string hot_b = tmp.file(ng.name + "_b.mpxs");
    io::save_snapshot(hot_b, from_cold, hot);
    EXPECT_EQ(read_file_or_fail(hot_a), read_file_or_fail(hot_b));
  }
}

TEST(SnapshotV2, ColdWriterIsByteStable) {
  TempDir tmp("snapv2");
  const CsrGraph g = generators::rmat(9, 6.0, 7);
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  cold.block_size = 128;
  const std::string a = tmp.file("a.mpxs");
  const std::string b = tmp.file("b.mpxs");
  io::save_snapshot(a, g, cold);
  io::save_snapshot(b, g, cold);
  EXPECT_EQ(read_file_or_fail(a), read_file_or_fail(b));
  // save(load(save)) is byte-identical: the cold form is canonical too.
  const std::string c = tmp.file("c.mpxs");
  io::save_snapshot(c, io::load_snapshot(a), cold);
  EXPECT_EQ(read_file_or_fail(a), read_file_or_fail(c));
}

TEST(SnapshotV2, WeightedTierRoundTrip) {
  TempDir tmp("snapv2");
  const WeightedCsrGraph wg = mpx::testing::grid3x3_weighted_reference();
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  cold.block_size = 8;
  const std::string path = tmp.file("w.mpxs");
  io::save_snapshot(path, wg, cold);
  for (const WeightedCsrGraph& back :
       {io::load_weighted_snapshot(path), io::map_weighted_snapshot(path)}) {
    expect_same_graph(back.topology(), wg.topology());
    EXPECT_TRUE(std::equal(back.weights().begin(), back.weights().end(),
                           wg.weights().begin()));
  }
}

TEST(SnapshotV2, ColdTierCompressesRealGraphs) {
  // The acceptance-level compression bar is measured on rmat(20) in
  // bench/BENCH_snapshot.json; this pins a cheaper proxy so a codec
  // regression fails the suite, not just the bench.
  TempDir tmp("snapv2");
  const CsrGraph g = generators::rmat(12, 8.0, 1);
  io::SnapshotWriteOptions hot;
  hot.tier = io::SnapshotTier::kHot;
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  const std::string hot_path = tmp.file("hot.mpxs");
  const std::string cold_path = tmp.file("cold.mpxs");
  io::save_snapshot(hot_path, g, hot);
  io::save_snapshot(cold_path, g, cold);
  const double ratio =
      static_cast<double>(read_file_or_fail(hot_path).size()) /
      static_cast<double>(read_file_or_fail(cold_path).size());
  EXPECT_GE(ratio, 2.0) << "cold tier regressed below 2x on rmat(12)";
  expect_same_graph(io::load_snapshot(cold_path), g);
}

TEST(SnapshotV2, DecompositionIdenticalOnColdLoadedGraphAcrossThreads) {
  // A decomposition computed on a cold-loaded graph must be exactly the
  // one computed on the in-memory graph — at every thread count, since the
  // loaded spans are byte-identical and partition() is seed-deterministic.
  TempDir tmp("snapv2");
  const CsrGraph g = generators::grid2d(24, 24);
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  cold.block_size = 256;
  const std::string path = tmp.file("dec.mpxs");
  io::save_snapshot(path, g, cold);
  const CsrGraph loaded = io::load_snapshot(path);

  PartitionOptions opt;
  opt.beta = 0.2;
  opt.seed = 42;
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedNumThreads scoped(threads);
    const Decomposition expected = partition(g, opt);
    const Decomposition got = partition(loaded, opt);
    ASSERT_EQ(got.num_clusters(), expected.num_clusters());
    EXPECT_TRUE(std::equal(got.assignment().begin(), got.assignment().end(),
                           expected.assignment().begin()));
    EXPECT_TRUE(std::equal(got.dists_to_center().begin(),
                           got.dists_to_center().end(),
                           expected.dists_to_center().begin()));
  }
}

TEST(SnapshotV2, WriteOptionsValidated) {
  TempDir tmp("snapv2");
  const CsrGraph g = generators::grid2d(3, 3);
  const std::string path = tmp.file("opt.mpxs");

  io::SnapshotWriteOptions cold_v1;
  cold_v1.version = io::kSnapshotVersion;
  cold_v1.tier = io::SnapshotTier::kCold;
  expect_throws_with([&] { io::save_snapshot(path, g, cold_v1); },
                     {"cold tier requires format version 2"});

  io::SnapshotWriteOptions bad_version;
  bad_version.version = 9;
  expect_throws_with([&] { io::save_snapshot(path, g, bad_version); },
                     {"cannot write format version"});

  io::SnapshotWriteOptions tiny_blocks;
  tiny_blocks.tier = io::SnapshotTier::kCold;
  tiny_blocks.block_size = 1;
  expect_throws_with([&] { io::save_snapshot(path, g, tiny_blocks); },
                     {"block_size"});

  // version=1 + hot tier routes to the byte-stable legacy writer.
  io::SnapshotWriteOptions v1;
  v1.version = io::kSnapshotVersion;
  io::save_snapshot(path, g, v1);
  EXPECT_EQ(read_file_or_fail(path),
            read_file_or_fail(golden_path("grid_3x3.mpxs")));
}

// ---------------------------------------------------------------------------
// Corruption: truncation sweep, seeded bit flips, block-index attacks
// ---------------------------------------------------------------------------

TEST(SnapshotV2Corruption, EveryTruncationPointRejected) {
  // The exact-file-size rule means *every* proper prefix of a well-formed
  // snapshot is invalid; sweep them all, byte by byte, over a hot and a
  // multi-block cold fixture. (These fixtures are a few hundred bytes, so
  // the full sweep stays cheap even in Debug/ASan CI.)
  TempDir tmp("snapv2");
  for (const char* name : {"grid_3x3_v2.mpxs", "grid_3x3_v2_cold.mpxs",
                           "grid_16x16_v2_cold.mpxs"}) {
    SCOPED_TRACE(name);
    const std::string good = read_file_or_fail(golden_path(name));
    const std::string path = tmp.file("trunc.mpxs");
    for (std::size_t keep = 0; keep < good.size(); ++keep) {
      write_file(path, good.substr(0, keep));
      EXPECT_THROW((void)io::load_snapshot(path), std::runtime_error)
          << "accepted a " << keep << "-byte prefix";
      EXPECT_THROW((void)io::read_snapshot_info(path), std::runtime_error)
          << "info accepted a " << keep << "-byte prefix";
    }
  }
}

TEST(SnapshotV2Corruption, SeededBitFlipsDetectedOrHarmless) {
  // Property: flipping any single bit of a v2 snapshot either makes every
  // reader throw (detected) or leaves a file that still decodes to the
  // original graph (the flip landed in alignment padding, which no
  // checksum covers but no decoder reads). Anything else — a crash, an
  // abort, or a *different* graph — is a conformance failure. Replay one
  // seed with MPX_TEST_SEED=<n>.
  TempDir tmp("snapv2");
  const std::string good =
      read_file_or_fail(golden_path("grid_16x16_v2_cold.mpxs"));
  const CsrGraph original = generators::grid2d(16, 16);
  const std::string path = tmp.file("flip.mpxs");
  mpx::testing::for_each_seed(12, [&](std::uint64_t seed) {
    Xoshiro256pp rng(seed ^ 0x5eed);
    for (int round = 0; round < 32; ++round) {
      const std::size_t bit = rng.next_below(8 * good.size());
      std::string bad = good;
      bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1u << (bit % 8)));
      write_file(path, bad);
      try {
        const CsrGraph loaded = io::load_snapshot(path);
        // Undetected: must be byte-equivalent to the pristine graph.
        ASSERT_EQ(loaded.num_vertices(), original.num_vertices())
            << "bit " << bit;
        ASSERT_TRUE(std::equal(loaded.offsets().begin(),
                               loaded.offsets().end(),
                               original.offsets().begin()))
            << "bit " << bit;
        ASSERT_TRUE(std::equal(loaded.targets().begin(),
                               loaded.targets().end(),
                               original.targets().begin()))
            << "bit " << bit;
      } catch (const std::runtime_error&) {
        // Detected: the expected outcome for any covered byte.
      }
    }
  });
}

class SnapshotV2BlockIndexAttack : public ::testing::Test {
 protected:
  void SetUp() override {
    good_ = read_file_or_fail(golden_path("grid_16x16_v2_cold.mpxs"));
    std::memcpy(&header_, good_.data(), sizeof(header_));
    ASSERT_NE(header_.flags & io::kSnapshotFlagColdTargets, 0u);
    ASSERT_GE(header_.block_index_bytes / sizeof(io::codec::BlockIndexEntry),
              2u);
    path_ = tmp_.file("attack.mpxs");
  }

  /// Returns a mutable view of index entry `b` inside `file`.
  static io::codec::BlockIndexEntry read_entry(const std::string& file,
                                               std::size_t b) {
    io::SnapshotHeaderV2 h{};
    std::memcpy(&h, file.data(), sizeof(h));
    io::codec::BlockIndexEntry e{};
    std::memcpy(&e,
                file.data() + h.block_index_offset +
                    b * sizeof(io::codec::BlockIndexEntry),
                sizeof(e));
    return e;
  }

  static void write_entry(std::string& file, std::size_t b,
                          const io::codec::BlockIndexEntry& e) {
    io::SnapshotHeaderV2 h{};
    std::memcpy(&h, file.data(), sizeof(h));
    std::memcpy(file.data() + h.block_index_offset +
                    b * sizeof(io::codec::BlockIndexEntry),
                &e, sizeof(e));
  }

  void expect_rejected(const std::string& bytes,
                       const std::string& needle) {
    SCOPED_TRACE(needle);
    write_file(path_, bytes);
    expect_throws_with([&] { (void)io::load_snapshot(path_); }, {needle});
    expect_throws_with([&] { (void)io::verify_snapshot_deep(path_); },
                       {needle});
  }

  TempDir tmp_{"snapv2-attack"};
  std::string path_;
  std::string good_;
  io::SnapshotHeaderV2 header_{};
};

TEST_F(SnapshotV2BlockIndexAttack, TamperedIndexFailsItsChecksum) {
  std::string bad = good_;
  io::codec::BlockIndexEntry e = read_entry(bad, 0);
  e.count += 1;
  write_entry(bad, 0, e);
  expect_rejected(bad, "block index checksum mismatch");
}

TEST_F(SnapshotV2BlockIndexAttack, OverlappingBlocksRejected) {
  // Inflating block 0's count would make it overlap block 1's arc range;
  // the fixed count formula rejects it even behind re-sealed checksums.
  std::string bad = good_;
  io::codec::BlockIndexEntry e = read_entry(bad, 0);
  e.count += 1;
  write_entry(bad, 0, e);
  reseal_block_index_v2(bad);
  expect_rejected(bad, "arc count does not match its arc range");
}

TEST_F(SnapshotV2BlockIndexAttack, CountOverrunRejected) {
  // The final block claiming more arcs than num_arcs leaves is the
  // classic read-past-the-end attack.
  const std::size_t last =
      header_.block_index_bytes / sizeof(io::codec::BlockIndexEntry) - 1;
  std::string bad = good_;
  io::codec::BlockIndexEntry e = read_entry(bad, last);
  e.count += 8;
  write_entry(bad, last, e);
  reseal_block_index_v2(bad);
  expect_rejected(bad, "arc count does not match its arc range");
}

TEST_F(SnapshotV2BlockIndexAttack, PayloadLengthsMustTileTargetsSection) {
  // Shrinking one byte_len shifts every later block's payload window; the
  // tiling check catches it before any bitstream is read.
  std::string bad = good_;
  io::codec::BlockIndexEntry e = read_entry(bad, 0);
  ASSERT_GT(e.byte_len, 0u);
  e.byte_len -= 1;
  write_entry(bad, 0, e);
  reseal_block_index_v2(bad);
  expect_rejected(bad, "do not tile the targets section");
}

TEST_F(SnapshotV2BlockIndexAttack, FirstTargetOutOfRangeRejected) {
  std::string bad = good_;
  io::codec::BlockIndexEntry e = read_entry(bad, 0);
  e.first_target = static_cast<std::uint32_t>(header_.num_vertices);
  write_entry(bad, 0, e);
  reseal_block_index_v2(bad);
  expect_rejected(bad, "first_target out of range");
}

TEST_F(SnapshotV2BlockIndexAttack, UndersizedPayloadRejected) {
  // byte_len below the structural minimum (code table + >= 1 bit per
  // coded arc) is rejected by arithmetic alone — the DoS guard that stops
  // a tiny file from claiming a huge arc count. Tampering two blocks
  // keeps the tiling sum intact so the minimum-length check must fire.
  std::string bad = good_;
  io::codec::BlockIndexEntry e0 = read_entry(bad, 0);
  io::codec::BlockIndexEntry e1 = read_entry(bad, 1);
  const std::uint32_t stolen = e0.byte_len - 1;  // leave 1 byte in block 0
  e0.byte_len -= stolen;
  e1.byte_len += stolen;
  write_entry(bad, 0, e0);
  write_entry(bad, 1, e1);
  reseal_block_index_v2(bad);
  expect_rejected(bad, "payload shorter than its arc count allows");
}

// ---------------------------------------------------------------------------
// Codec-level malformed input (decoder unit surface)
// ---------------------------------------------------------------------------

TEST(SnapshotV2Codec, DegreeStreamVarintCannotOverrunSection) {
  // A continuation bit on the final byte promises more bytes than the
  // section holds.
  const std::vector<unsigned char> overrun = {0x80};
  expect_throws_with(
      [&] { (void)io::codec::decode_degree_section(overrun, 1, 0); },
      {"varint overruns"});
}

TEST(SnapshotV2Codec, OverlongVarintRejected) {
  // Ten continuation bytes encode > 64 bits: overlong by construction.
  const std::vector<unsigned char> overlong(10, 0xFF);
  expect_throws_with(
      [&] { (void)io::codec::decode_degree_section(overlong, 1, 0); },
      {"overlong varint"});
}

TEST(SnapshotV2Codec, DegreesMustSumToArcCount) {
  // grid path 0-1-2: degrees 1,2,1 = 4 arcs; claim 5.
  std::vector<unsigned char> bytes;
  for (const unsigned degree : {1u, 2u, 1u}) {
    io::codec::varint_append(degree, bytes);
  }
  expect_throws_with(
      [&] { (void)io::codec::decode_degree_section(bytes, 3, 5); },
      {"degrees do not sum"});
  expect_throws_with(
      [&] { (void)io::codec::decode_degree_section(bytes, 2, 3); },
      {"trailing bytes"});
}

TEST(SnapshotV2Codec, DegreeAboveVertexCountRejected) {
  // Strictly ascending runs cap every degree at n; a claimed degree of
  // 2^40 must be rejected *before* any allocation sized from it.
  std::vector<unsigned char> bytes;
  io::codec::varint_append(1ull << 40, bytes);
  expect_throws_with(
      [&] { (void)io::codec::decode_degree_section(bytes, 1, 0); },
      {"degree exceeds num_vertices"});
}

TEST(SnapshotV2Codec, EncoderRequiresCanonicalAscendingRuns) {
  // The cold encoder refuses non-canonical CSR (descending run) instead
  // of producing an undecodable block.
  const std::vector<edge_t> offsets = {0, 2};
  const std::vector<vertex_t> targets = {1, 0};  // descending
  std::vector<unsigned char> payload;
  io::codec::BlockIndexEntry entry{};
  expect_throws_with(
      [&] {
        io::codec::encode_target_block(offsets, targets, 0, 2, payload,
                                       entry);
      },
      {"strictly ascending"});
}

TEST(SnapshotV2Codec, DecoderRejectsTruncatedAndPaddedPayloads) {
  // Encode a healthy block, then attack its payload framing directly:
  // truncation (bitstream overrun) and an extra trailing byte (the
  // zero-padding rule makes byte_len unambiguous).
  const std::vector<edge_t> offsets = {0, 3, 6};
  const std::vector<vertex_t> targets = {1, 5, 9, 0, 4, 8};
  std::vector<unsigned char> payload;
  io::codec::BlockIndexEntry entry{};
  io::codec::encode_target_block(offsets, targets, 0, 6, payload, entry);
  ASSERT_EQ(entry.byte_len, payload.size());
  std::vector<vertex_t> out(6);

  // Sanity: the pristine payload round-trips.
  io::codec::decode_target_block(offsets, 0, entry, payload, 10, out);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), targets.begin()));

  io::codec::BlockIndexEntry shorter = entry;
  shorter.byte_len -= 1;
  const std::span<const unsigned char> truncated{payload.data(),
                                                 payload.size() - 1};
  EXPECT_THROW(io::codec::decode_target_block(offsets, 0, shorter, truncated,
                                              10, out),
               std::runtime_error);

  std::vector<unsigned char> padded = payload;
  padded.push_back(0);
  io::codec::BlockIndexEntry longer = entry;
  longer.byte_len += 1;
  EXPECT_THROW(
      io::codec::decode_target_block(offsets, 0, longer, padded, 10, out),
      std::runtime_error);

  // Out-of-range decode: shrink num_vertices below the largest target.
  EXPECT_THROW(
      io::codec::decode_target_block(offsets, 0, entry, payload, 9, out),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Decoder edge cases: long codes, short bitstreams, byte-exact endings
// ---------------------------------------------------------------------------

/// One cold block over a single ascending adjacency run, built from the
/// delta values it codes: arc 0 targets vertex 0 and every later arc adds
/// `value + 1`.
struct RunBlock {
  std::vector<std::uint64_t> values;
  std::vector<edge_t> offsets;
  std::vector<vertex_t> targets;
  vertex_t n = 0;
  std::vector<unsigned char> payload;
  io::codec::BlockIndexEntry entry{};
};

RunBlock encode_run(std::vector<std::uint64_t> values) {
  RunBlock b;
  b.values = std::move(values);
  b.targets.push_back(0);
  for (const std::uint64_t v : b.values) {
    b.targets.push_back(static_cast<vertex_t>(b.targets.back() + v + 1));
  }
  b.n = b.targets.back() + 1;
  b.offsets = {0, b.targets.size()};
  io::codec::encode_target_block(b.offsets, b.targets, 0,
                                 static_cast<std::uint32_t>(b.targets.size()),
                                 b.payload, b.entry);
  return b;
}

/// Code length of `sym` in the block's code table.
int code_length(const RunBlock& b, int sym) {
  return (b.payload[static_cast<std::size_t>(sym) / 2] >> (4 * (sym % 2))) &
         0xF;
}

/// Bits of the block's bitstream (docs/FORMATS.md "Cold tier encoding"):
/// per value its code plus, for a value of `k >= 5` bits, `k - 1` raw bits.
std::size_t stream_bits(const RunBlock& b) {
  std::size_t bits = 0;
  for (const std::uint64_t v : b.values) {
    const int width = static_cast<int>(std::bit_width(v));
    bits += width <= 4 ? code_length(b, static_cast<int>(v))
                       : code_length(b, 16 + width - 5) + width - 1;
  }
  return bits;
}

/// Decodes `bytes` as the block's payload from a heap buffer of exactly
/// that size, so the sanitizer build sees any read past it.
std::vector<vertex_t> decode_exact(const RunBlock& b,
                                   std::span<const unsigned char> bytes) {
  const auto exact = std::make_unique<unsigned char[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), exact.get());
  io::codec::BlockIndexEntry entry = b.entry;
  entry.byte_len = static_cast<std::uint32_t>(bytes.size());
  std::vector<vertex_t> out(entry.count);
  io::codec::decode_target_block(b.offsets, 0, entry,
                                 {exact.get(), bytes.size()}, b.n, out);
  return out;
}

/// The block decodes back to its targets, and every truncation point and
/// every one-byte extension of its payload is rejected.
void expect_round_trip_and_exact_framing(const RunBlock& b) {
  ASSERT_EQ(b.entry.byte_len, b.payload.size());
  EXPECT_EQ(decode_exact(b, b.payload), b.targets);
  for (std::size_t len = 0; len < b.payload.size(); ++len) {
    EXPECT_THROW(
        (void)decode_exact(b, std::span(b.payload).first(len)),
        std::runtime_error)
        << "truncated to " << len << " of " << b.payload.size() << " bytes";
  }
  std::vector<unsigned char> longer = b.payload;
  longer.push_back(0);
  for (int extra = 0; extra < 256; ++extra) {
    longer.back() = static_cast<unsigned char>(extra);
    EXPECT_THROW((void)decode_exact(b, longer), std::runtime_error)
        << "extended by byte " << extra;
  }
}

TEST(SnapshotV2Codec, LongCodesFromFibonacciFrequenciesRoundTrip) {
  // Literal values 0..15 with Fibonacci frequencies make the Huffman tree
  // a path, so the code table holds 11..15-bit codes and the decoder's
  // walk past its primary lookup table runs.
  std::vector<std::uint64_t> values;
  std::uint64_t f0 = 1;
  std::uint64_t f1 = 1;
  for (std::uint64_t v = 0; v < 16; ++v) {
    values.insert(values.end(), f0, v);
    f0 = std::exchange(f1, f0 + f1);
  }
  Xoshiro256pp rng(2013);
  for (std::size_t i = values.size() - 1; i > 0; --i) {
    std::swap(values[i], values[rng.next_below(i + 1)]);
  }
  const RunBlock b = encode_run(values);
  int longest = 0;
  for (int sym = 0; sym < 16; ++sym) {
    longest = std::max(longest, code_length(b, sym));
  }
  EXPECT_EQ(longest, io::codec::kBlockMaxCodeLen);
  EXPECT_EQ((stream_bits(b) + 7) / 8, b.payload.size() - 23);
  expect_round_trip_and_exact_framing(b);
}

TEST(SnapshotV2Codec, BitstreamsShorterThanAWordRoundTrip) {
  // Bitstreams of 1..7 bytes never allow a whole-word load, so every
  // window comes from the zero-filled tail path.
  const std::vector<std::vector<std::uint64_t>> cases = {
      {0},
      {15},
      {16},
      {1u << 20},
      {3, 1u << 31},
      {0, 1, 2, 3, 4, 5, 6},
      {100, 7, 100, 7, 100},
      {0xFFFFFFFDu},
  };
  for (const auto& values : cases) {
    const RunBlock b = encode_run(values);
    const std::size_t stream_bytes = b.payload.size() - 23;
    ASSERT_GE(stream_bytes, 1u);
    ASSERT_LT(stream_bytes, 8u);
    expect_round_trip_and_exact_framing(b);
  }
}

TEST(SnapshotV2Codec, LastSymbolEndingOnTheFinalByteRoundTrips) {
  // No padding bits: the last symbol's final bit is the last payload bit,
  // so the decoder's consumed-bit count must land on the end exactly.
  // The fixed cases end on a byte, and on a word boundary (64 one-bit
  // codes); the seeded ones add mixed alphabets found by search.
  std::vector<std::vector<std::uint64_t>> cases = {
      std::vector<std::uint64_t>(8, 0),
      std::vector<std::uint64_t>(64, 0),
      std::vector<std::uint64_t>(8, 16),
      std::vector<std::uint64_t>(72, 9),
  };
  Xoshiro256pp rng(1307);
  const std::uint64_t pool[] = {0, 1, 5, 15, 16, 31, 1000, 1u << 20};
  while (cases.size() < 24) {
    std::vector<std::uint64_t> values(1 + rng.next_below(40));
    for (auto& v : values) v = pool[rng.next_below(8)];
    if (stream_bits(encode_run(values)) % 8 == 0) cases.push_back(values);
  }
  for (const auto& values : cases) {
    const RunBlock b = encode_run(values);
    ASSERT_EQ(stream_bits(b), 8 * (b.payload.size() - 23));
    expect_round_trip_and_exact_framing(b);
  }
}

}  // namespace
}  // namespace mpx
