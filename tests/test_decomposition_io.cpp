// Tests for decomposition serialization: round-trips, bitwise stability,
// malformed-input rejection, and a golden file pinning the format.
#include <gtest/gtest.h>

#include <sstream>

#include "core/decomposition_io.hpp"
#include "core/partition.hpp"
#include "graph/generators.hpp"
#include "tests/support/fixtures.hpp"
#include "tests/support/golden.hpp"
#include "tests/support/invariants.hpp"
#include "tests/support/temp_dir.hpp"

namespace mpx {
namespace {

using mpx::testing::check_decomposition_invariants;
using mpx::testing::golden_path;
using mpx::testing::NamedGraph;
using mpx::testing::read_file_or_fail;
using mpx::testing::serialize_decomposition;
using mpx::testing::TempDir;

TEST(DecompositionIo, RoundTripPreservesEverything) {
  const CsrGraph g = generators::grid2d(12, 13);
  PartitionOptions opt;
  opt.beta = 0.2;
  opt.seed = 4;
  const Decomposition dec = partition(g, opt);

  std::stringstream buffer;
  io::write_decomposition(buffer, dec);
  const Decomposition back = io::read_decomposition(buffer);

  ASSERT_EQ(back.num_vertices(), dec.num_vertices());
  ASSERT_EQ(back.num_clusters(), dec.num_clusters());
  for (cluster_t c = 0; c < dec.num_clusters(); ++c) {
    EXPECT_EQ(back.center(c), dec.center(c));
  }
  for (vertex_t v = 0; v < dec.num_vertices(); ++v) {
    EXPECT_EQ(back.cluster_of(v), dec.cluster_of(v));
    EXPECT_EQ(back.dist_to_center(v), dec.dist_to_center(v));
  }
  // The reloaded decomposition still satisfies every invariant.
  EXPECT_TRUE(check_decomposition_invariants(back, g, {.beta = opt.beta}));
}

TEST(DecompositionIo, FileRoundTripsAcrossCorpus) {
  // save -> load -> bitwise-identical re-serialization, for every canonical
  // shape (decompositions of the empty graph included).
  TempDir tmp("dec-io");
  PartitionOptions opt;
  opt.beta = 0.25;
  opt.seed = 7;
  for (const NamedGraph& ng : mpx::testing::small_graphs()) {
    SCOPED_TRACE(ng.name);
    const Decomposition dec = partition(ng.graph, opt);
    const std::string path = tmp.file(ng.name + ".dec");
    io::save_decomposition(path, dec);
    const Decomposition back = io::load_decomposition(path);
    EXPECT_EQ(serialize_decomposition(back), serialize_decomposition(dec));
    EXPECT_TRUE(check_decomposition_invariants(back, ng.graph));
  }
}

TEST(DecompositionIo, GoldenFileMatchesWriter) {
  // Pins the on-disk format alone: the fixture decomposition is built from
  // integer arrays, not from partition(), so no floating-point shift math
  // is in the loop. Regenerate deliberately with: regen_golden.
  EXPECT_EQ(
      serialize_decomposition(mpx::testing::grid3x3_reference_decomposition()),
      read_file_or_fail(golden_path("grid_3x3_reference.dec")));
}

TEST(DecompositionIo, GoldenFileLoadsAndVerifies) {
  const CsrGraph g = generators::grid2d(3, 3);
  const Decomposition back =
      io::load_decomposition(golden_path("grid_3x3_reference.dec"));
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_TRUE(check_decomposition_invariants(back, g));
}

TEST(DecompositionIo, RejectsMalformedInputs) {
  {
    std::stringstream in("# nothing\n");
    EXPECT_THROW((void)io::read_decomposition(in), std::runtime_error);
  }
  {
    std::stringstream in("4 9\n");  // k > n
    EXPECT_THROW((void)io::read_decomposition(in), std::runtime_error);
  }
  {
    std::stringstream in("4 1\n7\n");  // center out of range
    EXPECT_THROW((void)io::read_decomposition(in), std::runtime_error);
  }
  {
    std::stringstream in("2 1\n0\n0 0\n");  // truncated rows
    EXPECT_THROW((void)io::read_decomposition(in), std::runtime_error);
  }
  {
    std::stringstream in("2 1\n0\n5 0\n0 0\n");  // cluster id out of range
    EXPECT_THROW((void)io::read_decomposition(in), std::runtime_error);
  }
}

TEST(DecompositionIo, RejectsOutOfRangeDistances) {
  // A negative distance and one past uint32 max are corruption, not
  // values to wrap or truncate into the stored distance.
  for (const char* row : {"0 -1", "0 4294967296"}) {
    SCOPED_TRACE(row);
    std::stringstream in(std::string("2 1\n0\n0 0\n") + row + "\n");
    try {
      (void)io::read_decomposition(in);
      FAIL() << "expected runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed"), std::string::npos)
          << e.what();
    }
  }
  std::stringstream in("2 1\n0\n0 0\n0 4294967295\n");  // uint32 max
  EXPECT_EQ(io::read_decomposition(in).dist_to_center(1), 4294967295u);
}

std::string serialize_with_telemetry(const Decomposition& dec,
                                     const RunTelemetry& telemetry) {
  std::ostringstream out;
  io::write_decomposition(out, dec, telemetry);
  return out.str();
}

TEST(DecompositionIo, TelemetryBlockRoundTrips) {
  const CsrGraph g = generators::grid2d(8, 9);
  PartitionOptions opt;
  opt.beta = 0.3;
  opt.seed = 6;
  const Decomposition dec = partition(g, opt);
  const RunTelemetry telemetry = mpx::testing::reference_telemetry();

  std::stringstream buffer;
  io::write_decomposition(buffer, dec, telemetry);
  const io::LoadedDecomposition back = io::read_decomposition_full(buffer);
  ASSERT_TRUE(back.has_telemetry);
  EXPECT_EQ(back.telemetry, telemetry);
  EXPECT_EQ(serialize_decomposition(back.decomposition),
            serialize_decomposition(dec));
}

TEST(DecompositionIo, TelemetryTimingsRoundTripExactly) {
  // Arbitrary (non-representable) doubles survive bitwise: the writer
  // prints the shortest decimal form that parses back exactly.
  RunTelemetry telemetry = mpx::testing::reference_telemetry();
  telemetry.shift_seconds = 0.1234567890123456789;
  telemetry.search_seconds = 3.0e-9;
  telemetry.total_seconds = 1.0 / 3.0;
  std::stringstream buffer;
  io::write_decomposition(
      buffer, mpx::testing::grid3x3_reference_decomposition(), telemetry);
  const io::LoadedDecomposition back = io::read_decomposition_full(buffer);
  ASSERT_TRUE(back.has_telemetry);
  EXPECT_EQ(back.telemetry.shift_seconds, telemetry.shift_seconds);
  EXPECT_EQ(back.telemetry.search_seconds, telemetry.search_seconds);
  EXPECT_EQ(back.telemetry.total_seconds, telemetry.total_seconds);
}

TEST(DecompositionIo, CacheCountersRoundTripWhenNonzero) {
  // The paged (out-of-core) path fills the block-cache counters; the
  // writer emits them and the reader restores them.
  RunTelemetry telemetry = mpx::testing::reference_telemetry();
  telemetry.cache_hits = 1000;
  telemetry.cache_misses = 37;
  telemetry.cache_evictions = 21;
  std::stringstream buffer;
  io::write_decomposition(
      buffer, mpx::testing::grid3x3_reference_decomposition(), telemetry);
  EXPECT_NE(buffer.str().find("cache_hits 1000"), std::string::npos);
  const io::LoadedDecomposition back = io::read_decomposition_full(buffer);
  ASSERT_TRUE(back.has_telemetry);
  EXPECT_EQ(back.telemetry, telemetry);
}

TEST(DecompositionIo, CacheCountersOmittedWhenAllZero) {
  // In-memory runs leave the counters zero and the telemetry block
  // byte-identical to the pre-paged format (the golden file relies on
  // this), but the parser accepts explicit zeros all the same.
  const RunTelemetry telemetry = mpx::testing::reference_telemetry();
  ASSERT_EQ(telemetry.cache_hits + telemetry.cache_misses +
                telemetry.cache_evictions,
            0u);
  EXPECT_EQ(serialize_with_telemetry(
                mpx::testing::grid3x3_reference_decomposition(), telemetry)
                .find("cache_"),
            std::string::npos);
  std::stringstream in(
      "#! telemetry v1\n#! cache_hits 0\n#! cache_misses 0\n"
      "#! cache_evictions 0\n#! end telemetry\n2 1\n0\n0 0\n0 1\n");
  const io::LoadedDecomposition back = io::read_decomposition_full(in);
  ASSERT_TRUE(back.has_telemetry);
  EXPECT_EQ(back.telemetry.cache_hits, 0u);
}

TEST(DecompositionIo, LegacyReaderSkipsTelemetryBlock) {
  // Readers that predate the block (read_decomposition) treat "#!" lines
  // as comments, so files with telemetry stay loadable everywhere.
  const Decomposition dec = mpx::testing::grid3x3_reference_decomposition();
  std::stringstream buffer;
  io::write_decomposition(buffer, dec, mpx::testing::reference_telemetry());
  const Decomposition back = io::read_decomposition(buffer);
  EXPECT_EQ(serialize_decomposition(back), serialize_decomposition(dec));
}

TEST(DecompositionIo, FullReaderAcceptsFilesWithoutTelemetry) {
  const Decomposition dec = mpx::testing::grid3x3_reference_decomposition();
  std::stringstream buffer;
  io::write_decomposition(buffer, dec);
  const io::LoadedDecomposition back = io::read_decomposition_full(buffer);
  EXPECT_FALSE(back.has_telemetry);
  EXPECT_EQ(serialize_decomposition(back.decomposition),
            serialize_decomposition(dec));
}

TEST(DecompositionIo, TelemetryGoldenMatchesWriter) {
  // Pins the telemetry block format; timings in the fixture are
  // exactly-representable so the bytes are platform-stable. Regenerate
  // deliberately with: regen_golden.
  EXPECT_EQ(
      serialize_with_telemetry(mpx::testing::grid3x3_reference_decomposition(),
                               mpx::testing::reference_telemetry()),
      read_file_or_fail(golden_path("grid_3x3_telemetry.dec")));
}

TEST(DecompositionIo, TelemetryGoldenLoadsAndVerifies) {
  const io::LoadedDecomposition back =
      io::load_decomposition_full(golden_path("grid_3x3_telemetry.dec"));
  ASSERT_TRUE(back.has_telemetry);
  EXPECT_EQ(back.telemetry, mpx::testing::reference_telemetry());
  EXPECT_TRUE(check_decomposition_invariants(back.decomposition,
                                             generators::grid2d(3, 3)));
}

TEST(DecompositionIo, RejectsCorruptTelemetryBlocks) {
  const std::string body = "2 1\n0\n0 0\n0 1\n";
  const auto reject = [&](const std::string& preamble) {
    SCOPED_TRACE(preamble);
    std::stringstream in(preamble + body);
    EXPECT_THROW((void)io::read_decomposition_full(in), std::runtime_error);
  };
  // Unsupported version.
  reject("#! telemetry v2\n#! end telemetry\n");
  // "#!" line outside any block.
  reject("#! rounds 3\n");
  // Unknown key inside a block.
  reject("#! telemetry v1\n#! bogus 1\n#! end telemetry\n");
  // Non-numeric value.
  reject("#! telemetry v1\n#! rounds many\n#! end telemetry\n");
  // Out-of-range u32 (would truncate to 0 via a naive cast).
  reject("#! telemetry v1\n#! rounds 4294967296\n#! end telemetry\n");
  // Negative value (istream >> unsigned would silently wrap it).
  reject("#! telemetry v1\n#! rounds -1\n#! end telemetry\n");
  // Trailing content after a value.
  reject("#! telemetry v1\n#! rounds 3 4\n#! end telemetry\n");
  // Bad terminator.
  reject("#! telemetry v1\n#! end\n#! end telemetry\n");
  // Duplicate block.
  reject(
      "#! telemetry v1\n#! end telemetry\n"
      "#! telemetry v1\n#! end telemetry\n");
  // Unterminated block (header line swallowed as a stray key).
  {
    std::stringstream in("#! telemetry v1\n");
    EXPECT_THROW((void)io::read_decomposition_full(in), std::runtime_error);
  }
}

TEST(DecompositionIo, UnopenablePathThrows) {
  const CsrGraph g = generators::path(4);
  PartitionOptions opt;
  opt.beta = 0.5;
  const Decomposition dec = partition(g, opt);
  EXPECT_THROW(io::save_decomposition("/nonexistent/x.txt", dec),
               std::runtime_error);
  EXPECT_THROW((void)io::load_decomposition("/nonexistent/x.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace mpx
