// Tests for the cold-tier block reader (src/graph/snapshot_blocks.*):
// block geometry, per-block decode against the in-memory graph, lazy
// per-block checksum verification, raw weight access, and materialize()
// equivalence with the eager loaders. The block cache over the reader is
// tested in test_paged_graph.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "graph/snapshot_blocks.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/golden.hpp"
#include "tests/support/temp_dir.hpp"

namespace mpx {
namespace {

using mpx::testing::golden_path;
using mpx::testing::TempDir;

/// Saves `g` cold and opens a reader on the file.
std::shared_ptr<const io::SnapshotBlockReader> cold_reader(
    const TempDir& tmp, const CsrGraph& g, std::uint32_t block_size) {
  const std::string path = tmp.file("cache.mpxs");
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  cold.block_size = block_size;
  io::save_snapshot(path, g, cold);
  return std::make_shared<io::SnapshotBlockReader>(path);
}

TEST(SnapshotBlockReader, GeometryMatchesGraph) {
  TempDir tmp("blockcache");
  const CsrGraph g = generators::grid2d(20, 20);
  const auto reader = cold_reader(tmp, g, 32);
  EXPECT_EQ(reader->num_vertices(), g.num_vertices());
  EXPECT_EQ(reader->num_arcs(), g.num_arcs());
  EXPECT_EQ(reader->block_size(), 32u);
  EXPECT_EQ(reader->num_blocks(), (g.num_arcs() + 31) / 32);
  EXPECT_FALSE(reader->weighted());
  EXPECT_TRUE(std::equal(reader->offsets().begin(), reader->offsets().end(),
                         g.offsets().begin()));
  for (std::size_t b = 0; b < reader->num_blocks(); ++b) {
    EXPECT_EQ(reader->block_arc_begin(b), 32u * b);
    EXPECT_EQ(reader->block_of_arc(reader->block_arc_begin(b)), b);
  }
  EXPECT_EQ(reader->block_of_arc(g.num_arcs() - 1),
            reader->num_blocks() - 1);
}

TEST(SnapshotBlockReader, DecodeBlockReproducesTargetSlices) {
  TempDir tmp("blockcache");
  const CsrGraph g = generators::rmat(9, 6.0, 3);
  const auto reader = cold_reader(tmp, g, 64);
  std::vector<vertex_t> out;
  for (std::size_t b = 0; b < reader->num_blocks(); ++b) {
    out.assign(reader->block_arc_count(b), 0);
    reader->decode_block(b, out);
    const auto begin = g.targets().begin() +
                       static_cast<std::ptrdiff_t>(reader->block_arc_begin(b));
    EXPECT_TRUE(std::equal(out.begin(), out.end(), begin)) << "block " << b;
  }
}

TEST(SnapshotBlockReader, MaterializeEqualsEagerLoad) {
  TempDir tmp("blockcache");
  const CsrGraph g = generators::rmat(10, 5.0, 11);
  const std::string path = tmp.file("mat.mpxs");
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  cold.block_size = 128;
  io::save_snapshot(path, g, cold);

  const io::SnapshotBlockReader reader(path);
  const CsrGraph materialized = reader.materialize();
  const CsrGraph loaded = io::load_snapshot(path);
  ASSERT_EQ(materialized.num_arcs(), loaded.num_arcs());
  EXPECT_TRUE(std::equal(materialized.offsets().begin(),
                         materialized.offsets().end(),
                         loaded.offsets().begin()));
  EXPECT_TRUE(std::equal(materialized.targets().begin(),
                         materialized.targets().end(),
                         loaded.targets().begin()));
}

TEST(SnapshotBlockReader, RejectsHotTierFiles) {
  TempDir tmp("blockcache");
  const CsrGraph g = generators::grid2d(4, 4);
  const std::string path = tmp.file("hot.mpxs");
  io::SnapshotWriteOptions hot;
  hot.tier = io::SnapshotTier::kHot;
  io::save_snapshot(path, g, hot);
  EXPECT_THROW((void)io::SnapshotBlockReader(path), std::runtime_error);
  EXPECT_THROW((void)io::SnapshotBlockReader(golden_path("grid_3x3.mpxs")),
               std::runtime_error);
}

TEST(SnapshotBlockReader, LazyBlockChecksumCatchesPayloadFlip) {
  // The constructor validates header/index/offsets eagerly but payload
  // blocks lazily: a flipped payload byte surfaces on decode_block, not
  // on open.
  TempDir tmp("blockcache");
  const CsrGraph g = generators::grid2d(16, 16);
  const std::string path = tmp.file("lazy.mpxs");
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  cold.block_size = 64;
  io::save_snapshot(path, g, cold);

  std::string bytes = mpx::testing::read_file_or_fail(path);
  io::SnapshotHeaderV2 h{};
  std::memcpy(&h, bytes.data(), sizeof(h));
  bytes[h.targets_offset] = static_cast<char>(bytes[h.targets_offset] ^ 0x10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const io::SnapshotBlockReader reader(path);  // opens fine: lazy payloads
  std::vector<vertex_t> out(reader.block_arc_count(0));
  EXPECT_THROW(reader.decode_block(0, out), std::runtime_error);
  EXPECT_THROW((void)reader.materialize(), std::runtime_error);
}

TEST(BlockCache, WeightedReaderExposesRawWeights) {
  TempDir tmp("blockcache");
  const WeightedCsrGraph wg = mpx::testing::grid3x3_weighted_reference();
  const std::string path = tmp.file("w.mpxs");
  io::SnapshotWriteOptions cold;
  cold.tier = io::SnapshotTier::kCold;
  cold.block_size = 8;
  io::save_snapshot(path, wg, cold);

  const auto reader = std::make_shared<io::SnapshotBlockReader>(path);
  EXPECT_TRUE(reader->weighted());
  ASSERT_EQ(reader->weights().size(), wg.weights().size());
  EXPECT_TRUE(std::equal(reader->weights().begin(), reader->weights().end(),
                         wg.weights().begin()));
  const WeightedCsrGraph materialized = reader->materialize_weighted();
  EXPECT_TRUE(std::equal(materialized.weights().begin(),
                         materialized.weights().end(),
                         wg.weights().begin()));
}

}  // namespace
}  // namespace mpx
