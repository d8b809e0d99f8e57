// Plain-text serialization of decompositions, so downstream tools (or a
// later session) can consume partitions without re-running the algorithm.
//
// Format:
//   # comments
//   #! telemetry v1          (optional block, see below)
//   #! key value
//   #! end telemetry
//   n k
//   k lines: center vertex of cluster 0..k-1
//   n lines: "cluster_id dist_to_center" for vertex 0..n-1
//
// The optional telemetry block persists the producing run's RunTelemetry
// (core/decomposer.hpp) so cached DecompositionSession results survive
// restarts. Every block line starts with "#!", which readers that predate
// the block (and read_decomposition here) skip as ordinary comments —
// files with telemetry remain loadable everywhere. read_decomposition_full
// parses and validates the block: a malformed block (unknown version,
// unknown key, non-numeric value, missing "end telemetry") throws
// std::runtime_error rather than being silently dropped.
//
// Both readers consume `in` to its end and parse the bytes in one pass.
// A row whose cluster id or distance is out of range (a negative
// distance, one above uint32 max) is malformed.
#pragma once

#include <iosfwd>
#include <string>

#include "core/decomposition.hpp"
#include "core/telemetry.hpp"

namespace mpx::io {

void write_decomposition(std::ostream& out, const Decomposition& dec);
[[nodiscard]] Decomposition read_decomposition(std::istream& in);

/// Write with the producing run's telemetry as a "#!" comment block.
void write_decomposition(std::ostream& out, const Decomposition& dec,
                         const RunTelemetry& telemetry);

/// A decomposition plus the telemetry block, when the file carried one.
struct LoadedDecomposition {
  Decomposition decomposition;
  bool has_telemetry = false;
  RunTelemetry telemetry;  ///< valid iff has_telemetry
};

/// Read a decomposition and its optional telemetry block. Accepts files
/// with or without the block; throws std::runtime_error on malformed
/// content (including a malformed block).
[[nodiscard]] LoadedDecomposition read_decomposition_full(std::istream& in);

/// File-path conveniences; throw std::runtime_error on I/O failure.
void save_decomposition(const std::string& file_path,
                        const Decomposition& dec);
/// As above, with the telemetry block.
void save_decomposition(const std::string& file_path, const Decomposition& dec,
                        const RunTelemetry& telemetry);
[[nodiscard]] Decomposition load_decomposition(const std::string& file_path);
/// As load_decomposition, also recovering the telemetry block if present.
[[nodiscard]] LoadedDecomposition load_decomposition_full(
    const std::string& file_path);

}  // namespace mpx::io
