/// \file
/// \brief The decomposition service wire protocol (`.mpxq`, version 2).
///
/// A versioned, length-prefixed binary protocol carrying
/// `DecompositionRequest`s and query results between `DecompClient`
/// (client.hpp) and `DecompServer` (server.hpp). Every message is one
/// **frame**: a fixed 16-byte little-endian header (magic, protocol
/// version, message type, payload byte count) followed by a typed
/// payload. The byte layout is **normatively specified in
/// docs/PROTOCOL.md**; the `static_assert`s and the
/// `FrameHeaderLayoutMatchesSpec` test in `tests/test_protocol.cpp` pin
/// this implementation to the spec's stated offsets.
///
/// Decoders reject corrupt input — truncated frames, oversized length
/// prefixes, unknown message types, future protocol versions, payloads
/// with trailing junk or out-of-range enum values — by throwing
/// `ProtocolError` (a `std::runtime_error`); they never abort on bad
/// bytes, mirroring the snapshot format's rejection contract
/// (graph/snapshot.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/decomposer.hpp"
#include "graph/builder.hpp"
#include "obs/metrics.hpp"
#include "support/types.hpp"

namespace mpx::server {

/// Every decode failure: malformed frame headers and malformed payloads
/// alike. The what() string names the violated rule.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("mpx::protocol: " + what) {}
};

/// First 4 bytes of every frame: "MPXQ" (Q for query).
inline constexpr unsigned char kFrameMagic[4] = {'M', 'P', 'X', 'Q'};

/// Current protocol version. Decoders reject anything else (the
/// versioning rules in docs/PROTOCOL.md: new message types are not
/// compatible extensions). Version 2 = version 1 plus the
/// kStatsRequest/kStatsResponse pair.
inline constexpr std::uint16_t kProtocolVersion = 2;

/// Fixed frame-header size; the payload follows immediately.
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Upper bound on a frame payload. A length prefix above this is rejected
/// before any allocation, so a corrupt (or hostile) peer cannot make a
/// reader allocate unbounded memory. Generous enough for the owner+settle
/// arrays of a 2^31-vertex graph response.
inline constexpr std::uint64_t kMaxFramePayloadBytes = 1ull << 34;

/// Tighter bound the *server* applies to request-direction payloads
/// before allocating. Without this bound a hostile 16-byte header could
/// make the server pre-allocate kMaxFramePayloadBytes, which only
/// responses may legitimately need.
inline constexpr std::uint64_t kMaxRequestPayloadBytes = 1ull << 20;

/// Longest beta ladder a kBatchRequest may carry. Every distinct beta
/// caches a full DecompositionResult on the serving worker *during* the
/// request — before any cache bound can intervene — so the ladder length
/// is itself a wire-level constraint. The repo's serving shapes use 4–5
/// betas; 64 is an order of magnitude of headroom.
inline constexpr std::uint32_t kMaxBatchBetas = 64;

/// Frame type tags. Requests are 0x01–0x07; each response is its request
/// with the high bit set; kErrorResponse may answer any request.
enum class MessageType : std::uint16_t {
  kInfoRequest = 0x01,      ///< graph/server metadata probe
  kRunRequest = 0x02,       ///< run (or fetch) one decomposition
  kQueryRequest = 0x03,     ///< cluster-of / owner-of / distance
  kBoundaryRequest = 0x04,  ///< the cut-edge list
  kBatchRequest = 0x05,     ///< multi-beta batch run
  kShutdownRequest = 0x06,  ///< graceful server-wide shutdown
  kStatsRequest = 0x07,     ///< full metrics snapshot (v2)
  kInfoResponse = 0x81,
  kRunResponse = 0x82,
  kQueryResponse = 0x83,
  kBoundaryResponse = 0x84,
  kBatchResponse = 0x85,
  kShutdownResponse = 0x86,
  kStatsResponse = 0x87,
  kErrorResponse = 0xFF,
};

/// True when `raw` is one of the MessageType values above.
[[nodiscard]] bool is_known_message_type(std::uint16_t raw);

/// Decoded frame header.
struct FrameHeader {
  MessageType type = MessageType::kErrorResponse;
  std::uint64_t payload_bytes = 0;
};

/// Application-level error codes carried by kErrorResponse. Distinct from
/// ProtocolError: an error response is a well-formed frame describing why
/// the server declined a well-framed request.
enum class ErrorCode : std::uint32_t {
  kInvalidRequest = 1,    ///< validate_request failed (bad beta/algorithm)
  kUnsupportedQuery = 2,  ///< e.g. distance estimate on a weighted result
  kOutOfRange = 3,        ///< vertex id >= num_vertices
  kMalformedPayload = 4,  ///< frame ok, payload bytes undecodable
  kShuttingDown = 5,      ///< server is draining; retry elsewhere
  kInternal = 6,          ///< unexpected server-side failure
};

// --- message payloads -----------------------------------------------------

/// kInfoRequest carries an empty payload.
struct InfoRequest {
  friend bool operator==(const InfoRequest&, const InfoRequest&) = default;
};

/// What the server is and what it serves.
struct InfoResponse {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;   ///< undirected edges (num_arcs / 2)
  bool weighted = false;         ///< the graph carries edge weights
  std::uint16_t workers = 0;     ///< worker threads (= sessions)
  std::uint64_t requests_served = 0;  ///< lifetime request count
  // Lifetime block-cache counters of the store's paged graph; all zero
  // when the server holds the graph fully in memory (no --memory-budget).
  std::uint64_t cache_hits = 0;       ///< block-cache hits
  std::uint64_t cache_misses = 0;     ///< block-cache misses (decodes)
  std::uint64_t cache_evictions = 0;  ///< block-cache evictions

  friend bool operator==(const InfoResponse&, const InfoResponse&) = default;
};

/// Run (or fetch from the worker's cache) one decomposition.
struct RunRequest {
  DecompositionRequest request;
  /// When set, the response carries the full owner/settle arrays;
  /// otherwise only the summary (cheap for "just warm the cache" calls).
  bool include_arrays = false;

  friend bool operator==(const RunRequest&, const RunRequest&) = default;
};

/// Summary (and optionally the arrays) of one decomposition run.
struct RunResponse {
  std::uint32_t num_clusters = 0;
  bool is_weighted = false;
  bool from_cache = false;  ///< answered from the worker's result cache
  std::uint32_t rounds = 0;
  std::uint32_t phases = 0;
  std::uint64_t arcs_scanned = 0;
  bool has_arrays = false;
  std::vector<vertex_t> owner;        ///< present when has_arrays
  std::vector<std::uint32_t> settle;  ///< may be empty (mpx-weighted)

  friend bool operator==(const RunResponse&, const RunResponse&) = default;
};

/// Which scalar query a kQueryRequest asks.
enum class QueryKind : std::uint8_t {
  kClusterOf = 0,  ///< compact cluster id of `u`
  kOwnerOf = 1,    ///< center vertex that claimed `u`
  kDistance = 2,   ///< distance-oracle estimate between `u` and `v`
};

/// One scalar query against a (possibly cached) decomposition.
struct QueryRequest {
  DecompositionRequest request;
  QueryKind kind = QueryKind::kClusterOf;
  vertex_t u = 0;
  vertex_t v = 0;  ///< used by kDistance only; MUST still be encoded

  friend bool operator==(const QueryRequest&, const QueryRequest&) = default;
};

/// The scalar answer (cluster id, owner vertex, or distance estimate —
/// kInfDist across components).
struct QueryResponse {
  std::uint64_t value = 0;

  friend bool operator==(const QueryResponse&, const QueryResponse&) = default;
};

/// The cut-edge list of one decomposition.
struct BoundaryRequest {
  DecompositionRequest request;

  friend bool operator==(const BoundaryRequest&,
                         const BoundaryRequest&) = default;
};

/// The undirected cut edges {u, v} (u < v), in (u, v) order.
struct BoundaryResponse {
  std::vector<Edge> edges;

  friend bool operator==(const BoundaryResponse& a, const BoundaryResponse& b) {
    return a.edges == b.edges;
  }
};

/// Multi-beta batch run (DecompositionSession::run_batch semantics: the
/// seed's shift draws are generated once per batch and shared across the
/// ladder).
struct BatchRequest {
  DecompositionRequest base;  ///< base.beta is ignored; betas below rule
  std::vector<double> betas;

  friend bool operator==(const BatchRequest&, const BatchRequest&) = default;
};

/// Per-beta summary of a batch run, in request order.
struct BatchEntry {
  double beta = 0.0;
  std::uint32_t num_clusters = 0;
  std::uint32_t rounds = 0;
  std::uint64_t boundary_edges = 0;

  friend bool operator==(const BatchEntry&, const BatchEntry&) = default;
};

struct BatchResponse {
  std::vector<BatchEntry> entries;

  friend bool operator==(const BatchResponse&, const BatchResponse&) = default;
};

/// kShutdownRequest / kShutdownResponse carry empty payloads.
struct ShutdownRequest {
  friend bool operator==(const ShutdownRequest&,
                         const ShutdownRequest&) = default;
};
struct ShutdownResponse {
  friend bool operator==(const ShutdownResponse&,
                         const ShutdownResponse&) = default;
};

/// kStatsRequest carries an empty payload.
struct StatsRequest {
  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

/// Inner format tag of the kStatsResponse payload; receivers MUST reject
/// other values, so the stats snapshot can evolve without touching the
/// frame-level protocol version.
inline constexpr std::uint16_t kStatsFormatVersion = 1;

/// The server's full metrics snapshot (also DecompServer::stats()): the
/// fixed lifetime counters, the result-store and block-cache occupancy,
/// and the generic metrics registry (per-request-type latency histograms,
/// queue-wait, decompose phase timings — docs/OBSERVABILITY.md lists the
/// names). Histogram buckets travel sparse: only occupied buckets, in
/// strictly ascending index order.
struct StatsResponse {
  // Lifetime server counters.
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t info_requests = 0;
  std::uint64_t run_requests = 0;
  std::uint64_t query_requests = 0;
  std::uint64_t boundary_requests = 0;
  std::uint64_t batch_requests = 0;
  std::uint64_t stats_requests = 0;
  std::uint64_t accept_backoffs = 0;
  std::uint64_t write_timeouts = 0;
  std::uint64_t results_computed = 0;
  double service_seconds = 0.0;  ///< total wall time inside handlers
  // Result-store occupancy and the paged graph's block-cache counters
  // (all zero without --memory-budget).
  std::uint64_t store_resident_results = 0;
  std::uint64_t store_computes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_resident_blocks = 0;
  std::uint64_t cache_resident_bytes = 0;
  /// Everything the metrics registry holds, name-sorted per section.
  obs::MetricsSnapshot metrics;

  friend bool operator==(const StatsResponse&, const StatsResponse&) = default;
};

/// Why the server declined a request. Sent as kErrorResponse.
struct ErrorResponse {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  friend bool operator==(const ErrorResponse&, const ErrorResponse&) = default;
};

// --- framing --------------------------------------------------------------

/// Decode and validate a frame header from exactly kFrameHeaderBytes
/// bytes. Throws ProtocolError on short input, bad magic, an unsupported
/// version, an unknown message type, or a payload length above
/// kMaxFramePayloadBytes.
[[nodiscard]] FrameHeader decode_frame_header(
    std::span<const std::uint8_t> bytes);

/// Wrap `payload` in a frame of type `type`: header + payload bytes.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    MessageType type, std::span<const std::uint8_t> payload);

// --- payload encode/decode ------------------------------------------------
//
// One encode_payload / decode_* pair per message. Every decoder consumes
// the whole payload and throws ProtocolError on truncation, trailing
// junk, out-of-range enum values, or embedded lengths that overrun the
// payload.

[[nodiscard]] std::vector<std::uint8_t> encode_payload(const InfoRequest&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const InfoResponse&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const RunRequest&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const RunResponse&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const QueryRequest&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const QueryResponse&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const BoundaryRequest&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(
    const BoundaryResponse&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const BatchRequest&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const BatchResponse&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const ShutdownRequest&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(
    const ShutdownResponse&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const StatsRequest&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const StatsResponse&);
[[nodiscard]] std::vector<std::uint8_t> encode_payload(const ErrorResponse&);

[[nodiscard]] InfoRequest decode_info_request(
    std::span<const std::uint8_t> payload);
[[nodiscard]] InfoResponse decode_info_response(
    std::span<const std::uint8_t> payload);
[[nodiscard]] RunRequest decode_run_request(
    std::span<const std::uint8_t> payload);
[[nodiscard]] RunResponse decode_run_response(
    std::span<const std::uint8_t> payload);
[[nodiscard]] QueryRequest decode_query_request(
    std::span<const std::uint8_t> payload);
[[nodiscard]] QueryResponse decode_query_response(
    std::span<const std::uint8_t> payload);
[[nodiscard]] BoundaryRequest decode_boundary_request(
    std::span<const std::uint8_t> payload);
[[nodiscard]] BoundaryResponse decode_boundary_response(
    std::span<const std::uint8_t> payload);
[[nodiscard]] BatchRequest decode_batch_request(
    std::span<const std::uint8_t> payload);
[[nodiscard]] BatchResponse decode_batch_response(
    std::span<const std::uint8_t> payload);
[[nodiscard]] ShutdownRequest decode_shutdown_request(
    std::span<const std::uint8_t> payload);
[[nodiscard]] ShutdownResponse decode_shutdown_response(
    std::span<const std::uint8_t> payload);
[[nodiscard]] StatsRequest decode_stats_request(
    std::span<const std::uint8_t> payload);
[[nodiscard]] StatsResponse decode_stats_response(
    std::span<const std::uint8_t> payload);
[[nodiscard]] ErrorResponse decode_error_response(
    std::span<const std::uint8_t> payload);

/// Convenience: frame a message in one call (encode_payload + the header).
template <typename Message>
[[nodiscard]] std::vector<std::uint8_t> encode_message(MessageType type,
                                                       const Message& msg) {
  return encode_frame(type, encode_payload(msg));
}

// --- allocation-free hot-path framing -------------------------------------

/// Rebuild a complete kQueryRequest frame in `frame`, reusing its
/// capacity: byte-identical to `encode_message(kQueryRequest, msg)` but
/// allocation-free once the buffer has warmed up. Point queries are the
/// serving hot path, where one malloc per message is measurable.
void encode_query_request_frame_into(std::vector<std::uint8_t>& frame,
                                     const QueryRequest& msg);

/// Component-wise overload: identical bytes without materializing a
/// QueryRequest (skips the DecompositionRequest copy per point query).
void encode_query_request_frame_into(std::vector<std::uint8_t>& frame,
                                     const DecompositionRequest& request,
                                     QueryKind kind, vertex_t u, vertex_t v);

/// Same for the kQueryResponse direction (the server's hottest reply).
void encode_query_response_frame_into(std::vector<std::uint8_t>& frame,
                                      const QueryResponse& msg);

// --- zero-copy framing ----------------------------------------------------

/// A frame encoded as an ordered chunk sequence instead of one contiguous
/// buffer: small owned header/count pieces interleaved with borrowed
/// views of long-lived arrays. `chunks` is the wire order; each span
/// points either into `owned` or into caller-provided storage that must
/// outlive every write of the frame (the server parks the storage's
/// shared_ptr next to the frame until the last byte is flushed). Moving
/// an EncodedFrame keeps every span valid: the spans into `owned` view
/// heap buffers whose addresses moves do not change.
struct EncodedFrame {
  std::vector<std::vector<std::uint8_t>> owned;       ///< backing storage
  std::vector<std::span<const std::uint8_t>> chunks;  ///< wire order
  [[nodiscard]] std::size_t total_bytes() const;
  /// Concatenate the chunks (tests, and writers without vectored I/O).
  [[nodiscard]] std::vector<std::uint8_t> flatten() const;
};

/// Wrap an already-contiguous frame (encode_message output) as a
/// single-chunk EncodedFrame, so mixed response paths write one type.
[[nodiscard]] EncodedFrame make_owned_frame(std::vector<std::uint8_t> frame);

/// Zero-copy kRunResponse frame: byte-identical to
/// `encode_message(kRunResponse, msg)` for a RunResponse carrying these
/// arrays, but the owner/settle payload bytes are borrowed views of
/// `owner`/`settle` rather than copies. `summary.owner`/`summary.settle`
/// are ignored; `summary.has_arrays` selects the arrayless layout (the
/// spans are then unused).
[[nodiscard]] EncodedFrame encode_run_response_frame(
    const RunResponse& summary, std::span<const vertex_t> owner,
    std::span<const std::uint32_t> settle);

/// Zero-copy kBoundaryResponse frame over a borrowed edge list
/// (byte-identical to encoding a BoundaryResponse holding `edges`).
[[nodiscard]] EncodedFrame encode_boundary_response_frame(
    std::span<const Edge> edges);

}  // namespace mpx::server
