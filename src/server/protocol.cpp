#include "server/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>

namespace mpx::server {
namespace {

// The v1 spec (docs/PROTOCOL.md) defines all multi-byte fields as
// little-endian and this implementation reads/writes them as host
// integers — same portability stance as the snapshot format.
static_assert(std::endian::native == std::endian::little,
              "the mpx wire protocol requires a little-endian host");

/// Longest algorithm id the protocol will carry. Registry names are
/// short; the bound keeps a corrupt length byte from dragging the string
/// decode across the payload.
inline constexpr std::size_t kMaxAlgorithmBytes = 255;
/// Longest error message the protocol will carry.
inline constexpr std::size_t kMaxErrorMessageBytes = 4096;

[[noreturn]] void fail(const std::string& what) { throw ProtocolError(what); }

/// Append-only little-endian payload builder.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void raw(const void* data, std::size_t bytes) {
    if (bytes == 0) return;
    const std::size_t old = out_.size();
    out_.resize(old + bytes);
    std::memcpy(out_.data() + old, data, bytes);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian payload reader. Every overrun throws; a
/// decoder MUST call finish() so trailing junk is rejected too.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1, "u8");
    return bytes_[pos_++];
  }
  std::uint16_t u16() { return scalar<std::uint16_t>("u16"); }
  std::uint32_t u32() { return scalar<std::uint32_t>("u32"); }
  std::uint64_t u64() { return scalar<std::uint64_t>("u64"); }
  double f64() { return std::bit_cast<double>(u64()); }

  void raw(void* into, std::size_t bytes, const char* what) {
    if (bytes == 0) return;  // empty-span data() may be null
    need(bytes, what);
    std::memcpy(into, bytes_.data() + pos_, bytes);
    pos_ += bytes;
  }

  /// Reject payloads longer than their content: a well-formed frame's
  /// payload is exactly its fields, nothing more.
  void finish() const {
    if (pos_ != bytes_.size()) {
      fail("trailing junk: payload carries " + std::to_string(bytes_.size()) +
           " bytes but the message consumed only " + std::to_string(pos_));
    }
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <typename T>
  T scalar(const char* what) {
    T v;
    raw(&v, sizeof(v), what);
    return v;
  }

  void need(std::size_t bytes, const char* what) const {
    if (bytes_.size() - pos_ < bytes) {
      fail(std::string("truncated payload while reading ") + what +
           " (need " + std::to_string(bytes) + " bytes, have " +
           std::to_string(bytes_.size() - pos_) + ")");
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void write_request(Writer& w, const DecompositionRequest& req) {
  if (req.algorithm.empty() || req.algorithm.size() > kMaxAlgorithmBytes) {
    fail("algorithm id length " + std::to_string(req.algorithm.size()) +
         " outside [1, " + std::to_string(kMaxAlgorithmBytes) + "]");
  }
  w.u16(static_cast<std::uint16_t>(req.algorithm.size()));
  w.raw(req.algorithm.data(), req.algorithm.size());
  w.f64(req.beta);
  w.u64(req.seed);
  w.u8(static_cast<std::uint8_t>(req.tie_break));
  w.u8(static_cast<std::uint8_t>(req.distribution));
  w.u8(static_cast<std::uint8_t>(req.engine));
}

DecompositionRequest read_request(Reader& r) {
  DecompositionRequest req;
  const std::uint16_t len = r.u16();
  if (len == 0 || len > kMaxAlgorithmBytes) {
    fail("algorithm id length " + std::to_string(len) + " outside [1, " +
         std::to_string(kMaxAlgorithmBytes) + "]");
  }
  req.algorithm.resize(len);
  r.raw(req.algorithm.data(), len, "algorithm id");
  req.beta = r.f64();
  req.seed = r.u64();
  const std::uint8_t tie = r.u8();
  const std::uint8_t dist = r.u8();
  const std::uint8_t engine = r.u8();
  if (tie > static_cast<std::uint8_t>(TieBreak::kLexicographic)) {
    fail("tie-break value " + std::to_string(tie) + " out of range");
  }
  if (dist > static_cast<std::uint8_t>(ShiftDistribution::kUniform)) {
    fail("shift-distribution value " + std::to_string(dist) + " out of range");
  }
  if (engine > static_cast<std::uint8_t>(TraversalEngine::kPull)) {
    fail("traversal-engine value " + std::to_string(engine) + " out of range");
  }
  req.tie_break = static_cast<TieBreak>(tie);
  req.distribution = static_cast<ShiftDistribution>(dist);
  req.engine = static_cast<TraversalEngine>(engine);
  return req;
}

/// Shared guard for array counts inside payloads: the count must be
/// realizable within the remaining payload bytes (elements are at least
/// `element_bytes` wide), so a corrupt count cannot force a huge resize.
void check_count(std::uint64_t count, std::size_t element_bytes,
                 std::size_t remaining, const char* what) {
  if (count > remaining / element_bytes) {
    fail(std::string(what) + " count " + std::to_string(count) +
         " exceeds the payload");
  }
}

}  // namespace

bool is_known_message_type(std::uint16_t raw) {
  switch (static_cast<MessageType>(raw)) {
    case MessageType::kInfoRequest:
    case MessageType::kRunRequest:
    case MessageType::kQueryRequest:
    case MessageType::kBoundaryRequest:
    case MessageType::kBatchRequest:
    case MessageType::kShutdownRequest:
    case MessageType::kStatsRequest:
    case MessageType::kInfoResponse:
    case MessageType::kRunResponse:
    case MessageType::kQueryResponse:
    case MessageType::kBoundaryResponse:
    case MessageType::kBatchResponse:
    case MessageType::kShutdownResponse:
    case MessageType::kStatsResponse:
    case MessageType::kErrorResponse:
      return true;
  }
  return false;
}

FrameHeader decode_frame_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    fail("truncated frame header: " + std::to_string(bytes.size()) +
         " of " + std::to_string(kFrameHeaderBytes) + " bytes");
  }
  if (std::memcmp(bytes.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) {
    fail("bad magic (not an mpx protocol frame)");
  }
  std::uint16_t version;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  if (version != kProtocolVersion) {
    fail("unsupported protocol version " + std::to_string(version) +
         " (this peer speaks version " + std::to_string(kProtocolVersion) +
         ")");
  }
  std::uint16_t raw_type;
  std::memcpy(&raw_type, bytes.data() + 6, sizeof(raw_type));
  if (!is_known_message_type(raw_type)) {
    fail("unknown message type " + std::to_string(raw_type));
  }
  FrameHeader header;
  header.type = static_cast<MessageType>(raw_type);
  std::memcpy(&header.payload_bytes, bytes.data() + 8,
              sizeof(header.payload_bytes));
  if (header.payload_bytes > kMaxFramePayloadBytes) {
    fail("oversized payload length " + std::to_string(header.payload_bytes) +
         " (limit " + std::to_string(kMaxFramePayloadBytes) + ")");
  }
  return header;
}

std::vector<std::uint8_t> encode_frame(MessageType type,
                                       std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFramePayloadBytes) {
    fail("payload of " + std::to_string(payload.size()) +
         " bytes exceeds the frame limit");
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  Writer w(frame);
  w.raw(kFrameMagic, sizeof(kFrameMagic));
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(payload.size());
  w.raw(payload.data(), payload.size());
  return frame;
}

// --- InfoRequest / InfoResponse -------------------------------------------

std::vector<std::uint8_t> encode_payload(const InfoRequest&) { return {}; }

InfoRequest decode_info_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  r.finish();
  return {};
}

std::vector<std::uint8_t> encode_payload(const InfoResponse& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u64(msg.num_vertices);
  w.u64(msg.num_edges);
  w.u8(msg.weighted ? 1 : 0);
  w.u16(msg.workers);
  w.u64(msg.requests_served);
  w.u64(msg.cache_hits);
  w.u64(msg.cache_misses);
  w.u64(msg.cache_evictions);
  return out;
}

InfoResponse decode_info_response(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  InfoResponse msg;
  msg.num_vertices = r.u64();
  msg.num_edges = r.u64();
  const std::uint8_t weighted = r.u8();
  if (weighted > 1) fail("weighted flag must be 0 or 1");
  msg.weighted = weighted != 0;
  msg.workers = r.u16();
  msg.requests_served = r.u64();
  msg.cache_hits = r.u64();
  msg.cache_misses = r.u64();
  msg.cache_evictions = r.u64();
  r.finish();
  return msg;
}

// --- RunRequest / RunResponse ---------------------------------------------

std::vector<std::uint8_t> encode_payload(const RunRequest& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  write_request(w, msg.request);
  w.u8(msg.include_arrays ? 1 : 0);
  return out;
}

RunRequest decode_run_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  RunRequest msg;
  msg.request = read_request(r);
  const std::uint8_t arrays = r.u8();
  if (arrays > 1) fail("include_arrays flag must be 0 or 1");
  msg.include_arrays = arrays != 0;
  r.finish();
  return msg;
}

std::vector<std::uint8_t> encode_payload(const RunResponse& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(msg.num_clusters);
  w.u8(msg.is_weighted ? 1 : 0);
  w.u8(msg.from_cache ? 1 : 0);
  w.u32(msg.rounds);
  w.u32(msg.phases);
  w.u64(msg.arcs_scanned);
  w.u8(msg.has_arrays ? 1 : 0);
  if (msg.has_arrays) {
    w.u64(msg.owner.size());
    w.raw(msg.owner.data(), msg.owner.size() * sizeof(vertex_t));
    w.u64(msg.settle.size());
    w.raw(msg.settle.data(), msg.settle.size() * sizeof(std::uint32_t));
  }
  return out;
}

RunResponse decode_run_response(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  RunResponse msg;
  msg.num_clusters = r.u32();
  const std::uint8_t weighted = r.u8();
  if (weighted > 1) fail("is_weighted flag must be 0 or 1");
  msg.is_weighted = weighted != 0;
  const std::uint8_t cached = r.u8();
  if (cached > 1) fail("from_cache flag must be 0 or 1");
  msg.from_cache = cached != 0;
  msg.rounds = r.u32();
  msg.phases = r.u32();
  msg.arcs_scanned = r.u64();
  const std::uint8_t arrays = r.u8();
  if (arrays > 1) fail("has_arrays flag must be 0 or 1");
  msg.has_arrays = arrays != 0;
  if (msg.has_arrays) {
    const std::uint64_t owner_count = r.u64();
    check_count(owner_count, sizeof(vertex_t), r.remaining(), "owner");
    msg.owner.resize(owner_count);
    r.raw(msg.owner.data(), owner_count * sizeof(vertex_t), "owner array");
    const std::uint64_t settle_count = r.u64();
    check_count(settle_count, sizeof(std::uint32_t), r.remaining(), "settle");
    if (settle_count != 0 && settle_count != owner_count) {
      fail("settle count " + std::to_string(settle_count) +
           " is neither 0 nor the owner count");
    }
    msg.settle.resize(settle_count);
    r.raw(msg.settle.data(), settle_count * sizeof(std::uint32_t),
          "settle array");
  }
  r.finish();
  return msg;
}

// --- QueryRequest / QueryResponse -----------------------------------------

namespace {

void append_query_request(Writer& w, const QueryRequest& msg) {
  write_request(w, msg.request);
  w.u8(static_cast<std::uint8_t>(msg.kind));
  w.u32(msg.u);
  w.u32(msg.v);
}

}  // namespace

std::vector<std::uint8_t> encode_payload(const QueryRequest& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  append_query_request(w, msg);
  return out;
}

QueryRequest decode_query_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  QueryRequest msg;
  msg.request = read_request(r);
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(QueryKind::kDistance)) {
    fail("query kind " + std::to_string(kind) + " out of range");
  }
  msg.kind = static_cast<QueryKind>(kind);
  msg.u = r.u32();
  msg.v = r.u32();
  r.finish();
  return msg;
}

std::vector<std::uint8_t> encode_payload(const QueryResponse& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u64(msg.value);
  return out;
}

namespace {

/// Frame a payload directly into `frame` behind the header — no
/// temporary payload buffer, and allocation-free once `frame` has
/// capacity. The length field is patched after the body is written.
template <typename BuildPayload>
void build_frame_into(std::vector<std::uint8_t>& frame, MessageType type,
                      BuildPayload&& body) {
  frame.clear();
  Writer w(frame);
  w.raw(kFrameMagic, sizeof(kFrameMagic));
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(0);  // payload length, patched below
  body(w);
  const std::uint64_t payload_bytes = frame.size() - kFrameHeaderBytes;
  std::memcpy(frame.data() + kFrameHeaderBytes - sizeof(payload_bytes),
              &payload_bytes, sizeof(payload_bytes));
}

}  // namespace

void encode_query_request_frame_into(std::vector<std::uint8_t>& frame,
                                     const QueryRequest& msg) {
  build_frame_into(frame, MessageType::kQueryRequest,
                   [&](Writer& w) { append_query_request(w, msg); });
}

void encode_query_request_frame_into(std::vector<std::uint8_t>& frame,
                                     const DecompositionRequest& request,
                                     QueryKind kind, vertex_t u, vertex_t v) {
  build_frame_into(frame, MessageType::kQueryRequest, [&](Writer& w) {
    write_request(w, request);
    w.u8(static_cast<std::uint8_t>(kind));
    w.u32(u);
    w.u32(v);
  });
}

void encode_query_response_frame_into(std::vector<std::uint8_t>& frame,
                                      const QueryResponse& msg) {
  build_frame_into(frame, MessageType::kQueryResponse,
                   [&](Writer& w) { w.u64(msg.value); });
}

QueryResponse decode_query_response(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  QueryResponse msg;
  msg.value = r.u64();
  r.finish();
  return msg;
}

// --- BoundaryRequest / BoundaryResponse -----------------------------------

std::vector<std::uint8_t> encode_payload(const BoundaryRequest& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  write_request(w, msg.request);
  return out;
}

BoundaryRequest decode_boundary_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  BoundaryRequest msg;
  msg.request = read_request(r);
  r.finish();
  return msg;
}

std::vector<std::uint8_t> encode_payload(const BoundaryResponse& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u64(msg.edges.size());
  for (const Edge& e : msg.edges) {
    w.u32(e.u);
    w.u32(e.v);
  }
  return out;
}

BoundaryResponse decode_boundary_response(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  BoundaryResponse msg;
  const std::uint64_t count = r.u64();
  check_count(count, 2 * sizeof(vertex_t), r.remaining(), "boundary edge");
  msg.edges.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Edge e{};
    e.u = r.u32();
    e.v = r.u32();
    if (e.u >= e.v) {
      fail("boundary edge (" + std::to_string(e.u) + ", " +
           std::to_string(e.v) + ") violates u < v");
    }
    msg.edges.push_back(e);
  }
  r.finish();
  return msg;
}

// --- BatchRequest / BatchResponse -----------------------------------------

std::vector<std::uint8_t> encode_payload(const BatchRequest& msg) {
  if (msg.betas.size() > kMaxBatchBetas) {
    fail("batch of " + std::to_string(msg.betas.size()) +
         " betas exceeds the ladder limit (" + std::to_string(kMaxBatchBetas) +
         ")");
  }
  std::vector<std::uint8_t> out;
  Writer w(out);
  write_request(w, msg.base);
  w.u32(static_cast<std::uint32_t>(msg.betas.size()));
  for (const double beta : msg.betas) w.f64(beta);
  return out;
}

BatchRequest decode_batch_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  BatchRequest msg;
  msg.base = read_request(r);
  const std::uint32_t count = r.u32();
  if (count > kMaxBatchBetas) {
    fail("batch of " + std::to_string(count) +
         " betas exceeds the ladder limit (" + std::to_string(kMaxBatchBetas) +
         "); each beta caches a full result on the serving worker");
  }
  check_count(count, sizeof(double), r.remaining(), "beta");
  msg.betas.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) msg.betas.push_back(r.f64());
  r.finish();
  return msg;
}

std::vector<std::uint8_t> encode_payload(const BatchResponse& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(static_cast<std::uint32_t>(msg.entries.size()));
  for (const BatchEntry& e : msg.entries) {
    w.f64(e.beta);
    w.u32(e.num_clusters);
    w.u32(e.rounds);
    w.u64(e.boundary_edges);
  }
  return out;
}

BatchResponse decode_batch_response(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  BatchResponse msg;
  const std::uint32_t count = r.u32();
  check_count(count, sizeof(double) + 2 * sizeof(std::uint32_t) +
                         sizeof(std::uint64_t),
              r.remaining(), "batch entry");
  msg.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    BatchEntry e;
    e.beta = r.f64();
    e.num_clusters = r.u32();
    e.rounds = r.u32();
    e.boundary_edges = r.u64();
    msg.entries.push_back(e);
  }
  r.finish();
  return msg;
}

// --- Shutdown / Error -----------------------------------------------------

std::vector<std::uint8_t> encode_payload(const ShutdownRequest&) { return {}; }

ShutdownRequest decode_shutdown_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  r.finish();
  return {};
}

std::vector<std::uint8_t> encode_payload(const ShutdownResponse&) {
  return {};
}

ShutdownResponse decode_shutdown_response(
    std::span<const std::uint8_t> payload) {
  Reader r(payload);
  r.finish();
  return {};
}

// --- Stats ----------------------------------------------------------------

std::vector<std::uint8_t> encode_payload(const StatsRequest&) { return {}; }

StatsRequest decode_stats_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  r.finish();
  return {};
}

namespace {

void write_metric_name(Writer& w, const std::string& name) {
  if (name.empty() || name.size() > obs::kMaxMetricNameBytes) {
    fail("metric name length " + std::to_string(name.size()) +
         " outside [1, " + std::to_string(obs::kMaxMetricNameBytes) + "]");
  }
  w.u16(static_cast<std::uint16_t>(name.size()));
  w.raw(name.data(), name.size());
}

std::string read_metric_name(Reader& r) {
  const std::uint16_t len = r.u16();
  if (len == 0 || len > obs::kMaxMetricNameBytes) {
    fail("metric name length " + std::to_string(len) + " outside [1, " +
         std::to_string(obs::kMaxMetricNameBytes) + "]");
  }
  std::string name(len, '\0');
  r.raw(name.data(), len, "metric name");
  return name;
}

/// Sections are canonical: names strictly ascending (the registry
/// snapshot is name-sorted), so duplicates and reordered entries are
/// rejected and decode(encode(x)) == x holds bytewise.
void check_name_order(const std::string& prev, const std::string& name,
                      const char* section) {
  if (!prev.empty() && !(prev < name)) {
    fail(std::string(section) + " section is not strictly name-sorted ('" +
         prev + "' then '" + name + "')");
  }
}

}  // namespace

std::vector<std::uint8_t> encode_payload(const StatsResponse& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u16(kStatsFormatVersion);
  w.u64(msg.connections);
  w.u64(msg.requests);
  w.u64(msg.errors);
  w.u64(msg.info_requests);
  w.u64(msg.run_requests);
  w.u64(msg.query_requests);
  w.u64(msg.boundary_requests);
  w.u64(msg.batch_requests);
  w.u64(msg.stats_requests);
  w.u64(msg.accept_backoffs);
  w.u64(msg.write_timeouts);
  w.u64(msg.results_computed);
  w.f64(msg.service_seconds);
  w.u64(msg.store_resident_results);
  w.u64(msg.store_computes);
  w.u64(msg.cache_hits);
  w.u64(msg.cache_misses);
  w.u64(msg.cache_evictions);
  w.u64(msg.cache_resident_blocks);
  w.u64(msg.cache_resident_bytes);
  w.u32(static_cast<std::uint32_t>(msg.metrics.counters.size()));
  for (const obs::CounterSnapshot& c : msg.metrics.counters) {
    write_metric_name(w, c.name);
    w.u64(c.value);
  }
  w.u32(static_cast<std::uint32_t>(msg.metrics.gauges.size()));
  for (const obs::GaugeSnapshot& g : msg.metrics.gauges) {
    write_metric_name(w, g.name);
    w.u64(std::bit_cast<std::uint64_t>(g.value));
  }
  w.u32(static_cast<std::uint32_t>(msg.metrics.histograms.size()));
  for (const obs::NamedHistogram& h : msg.metrics.histograms) {
    write_metric_name(w, h.name);
    w.u64(h.histogram.count);
    w.u64(h.histogram.sum);
    w.u64(h.histogram.max);
    w.u32(static_cast<std::uint32_t>(h.histogram.buckets.size()));
    for (const obs::HistogramBucket& b : h.histogram.buckets) {
      w.u16(b.index);
      w.u64(b.count);
    }
  }
  return out;
}

StatsResponse decode_stats_response(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  StatsResponse msg;
  const std::uint16_t format = r.u16();
  if (format != kStatsFormatVersion) {
    fail("unsupported stats format " + std::to_string(format) +
         " (this peer speaks format " + std::to_string(kStatsFormatVersion) +
         ")");
  }
  msg.connections = r.u64();
  msg.requests = r.u64();
  msg.errors = r.u64();
  msg.info_requests = r.u64();
  msg.run_requests = r.u64();
  msg.query_requests = r.u64();
  msg.boundary_requests = r.u64();
  msg.batch_requests = r.u64();
  msg.stats_requests = r.u64();
  msg.accept_backoffs = r.u64();
  msg.write_timeouts = r.u64();
  msg.results_computed = r.u64();
  msg.service_seconds = r.f64();
  msg.store_resident_results = r.u64();
  msg.store_computes = r.u64();
  msg.cache_hits = r.u64();
  msg.cache_misses = r.u64();
  msg.cache_evictions = r.u64();
  msg.cache_resident_blocks = r.u64();
  msg.cache_resident_bytes = r.u64();

  // Smallest possible encodings bound every count before allocation:
  // name (u16 len + 1 byte) + value for counters/gauges; histograms add
  // count/sum/max + a bucket count.
  const std::uint32_t counter_count = r.u32();
  check_count(counter_count, 2 + 1 + 8, r.remaining(), "stats counter");
  msg.metrics.counters.reserve(counter_count);
  std::string prev;
  for (std::uint32_t i = 0; i < counter_count; ++i) {
    obs::CounterSnapshot c;
    c.name = read_metric_name(r);
    check_name_order(prev, c.name, "counter");
    prev = c.name;
    c.value = r.u64();
    msg.metrics.counters.push_back(std::move(c));
  }
  const std::uint32_t gauge_count = r.u32();
  check_count(gauge_count, 2 + 1 + 8, r.remaining(), "stats gauge");
  msg.metrics.gauges.reserve(gauge_count);
  prev.clear();
  for (std::uint32_t i = 0; i < gauge_count; ++i) {
    obs::GaugeSnapshot g;
    g.name = read_metric_name(r);
    check_name_order(prev, g.name, "gauge");
    prev = g.name;
    g.value = std::bit_cast<std::int64_t>(r.u64());
    msg.metrics.gauges.push_back(std::move(g));
  }
  const std::uint32_t histogram_count = r.u32();
  check_count(histogram_count, 2 + 1 + 3 * 8 + 4, r.remaining(),
              "stats histogram");
  msg.metrics.histograms.reserve(histogram_count);
  prev.clear();
  for (std::uint32_t i = 0; i < histogram_count; ++i) {
    obs::NamedHistogram h;
    h.name = read_metric_name(r);
    check_name_order(prev, h.name, "histogram");
    prev = h.name;
    h.histogram.count = r.u64();
    h.histogram.sum = r.u64();
    h.histogram.max = r.u64();
    const std::uint32_t bucket_count = r.u32();
    check_count(bucket_count, 2 + 8, r.remaining(), "histogram bucket");
    h.histogram.buckets.reserve(bucket_count);
    std::uint32_t prev_index = 0;
    for (std::uint32_t b = 0; b < bucket_count; ++b) {
      obs::HistogramBucket bucket;
      bucket.index = r.u16();
      if (bucket.index >= obs::kHistogramBucketCount) {
        fail("histogram bucket index " + std::to_string(bucket.index) +
             " outside the scheme (" +
             std::to_string(obs::kHistogramBucketCount) + " buckets)");
      }
      if (b != 0 && bucket.index <= prev_index) {
        fail("histogram buckets are not strictly index-sorted (" +
             std::to_string(prev_index) + " then " +
             std::to_string(bucket.index) + ")");
      }
      prev_index = bucket.index;
      bucket.count = r.u64();
      if (bucket.count == 0) {
        fail("histogram bucket " + std::to_string(bucket.index) +
             " carries a zero count (occupied buckets only)");
      }
      h.histogram.buckets.push_back(bucket);
    }
    msg.metrics.histograms.push_back(std::move(h));
  }
  r.finish();
  return msg;
}

std::vector<std::uint8_t> encode_payload(const ErrorResponse& msg) {
  std::vector<std::uint8_t> out;
  Writer w(out);
  w.u32(static_cast<std::uint32_t>(msg.code));
  const std::size_t len =
      std::min(msg.message.size(), kMaxErrorMessageBytes);
  w.u32(static_cast<std::uint32_t>(len));
  w.raw(msg.message.data(), len);
  return out;
}

ErrorResponse decode_error_response(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ErrorResponse msg;
  const std::uint32_t code = r.u32();
  if (code < static_cast<std::uint32_t>(ErrorCode::kInvalidRequest) ||
      code > static_cast<std::uint32_t>(ErrorCode::kInternal)) {
    fail("error code " + std::to_string(code) + " out of range");
  }
  msg.code = static_cast<ErrorCode>(code);
  const std::uint32_t len = r.u32();
  if (len > kMaxErrorMessageBytes) {
    fail("error message length " + std::to_string(len) + " exceeds the cap");
  }
  msg.message.resize(len);
  r.raw(msg.message.data(), len, "error message");
  r.finish();
  return msg;
}

// --- zero-copy framing ----------------------------------------------------

// The borrowed-array chunks reinterpret typed vectors as wire bytes, so
// the in-memory layout must equal the spec's: consecutive little-endian
// u32 pairs for Edge, consecutive little-endian u32s for the arrays. The
// little-endian static_assert above covers byte order; these pin the
// struct layout.
static_assert(sizeof(vertex_t) == 4);
static_assert(sizeof(Edge) == 8 && offsetof(Edge, u) == 0 &&
                  offsetof(Edge, v) == 4,
              "Edge must lay out as the wire's (u, v) u32 pair");

std::size_t EncodedFrame::total_bytes() const {
  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  return total;
}

std::vector<std::uint8_t> EncodedFrame::flatten() const {
  std::vector<std::uint8_t> out;
  out.reserve(total_bytes());
  for (const auto& chunk : chunks) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

EncodedFrame make_owned_frame(std::vector<std::uint8_t> frame) {
  EncodedFrame out;
  out.owned.push_back(std::move(frame));
  out.chunks.emplace_back(out.owned.back());
  return out;
}

namespace {

/// Frame header + the fixed RunResponse payload fields into one buffer.
void write_frame_header(Writer& w, MessageType type,
                        std::uint64_t payload_bytes) {
  if (payload_bytes > kMaxFramePayloadBytes) {
    fail("payload of " + std::to_string(payload_bytes) +
         " bytes exceeds the frame limit");
  }
  w.raw(kFrameMagic, sizeof(kFrameMagic));
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(payload_bytes);
}

}  // namespace

EncodedFrame encode_run_response_frame(const RunResponse& summary,
                                       std::span<const vertex_t> owner,
                                       std::span<const std::uint32_t> settle) {
  // Fixed payload prefix: u32 + u8 + u8 + u32 + u32 + u64 + u8.
  constexpr std::uint64_t kFixedBytes = 23;
  const std::uint64_t payload_bytes =
      summary.has_arrays ? kFixedBytes + 8 + owner.size_bytes() + 8 +
                               settle.size_bytes()
                         : kFixedBytes;
  EncodedFrame out;
  std::vector<std::uint8_t> head;
  head.reserve(kFrameHeaderBytes + kFixedBytes + 8);
  Writer w(head);
  write_frame_header(w, MessageType::kRunResponse, payload_bytes);
  w.u32(summary.num_clusters);
  w.u8(summary.is_weighted ? 1 : 0);
  w.u8(summary.from_cache ? 1 : 0);
  w.u32(summary.rounds);
  w.u32(summary.phases);
  w.u64(summary.arcs_scanned);
  w.u8(summary.has_arrays ? 1 : 0);
  if (!summary.has_arrays) {
    out.owned.push_back(std::move(head));
    out.chunks.emplace_back(out.owned.back());
    return out;
  }
  w.u64(owner.size());
  std::vector<std::uint8_t> mid;
  Writer m(mid);
  m.u64(settle.size());
  out.owned.push_back(std::move(head));
  out.owned.push_back(std::move(mid));
  out.chunks.emplace_back(out.owned[0]);
  out.chunks.emplace_back(
      reinterpret_cast<const std::uint8_t*>(owner.data()),
      owner.size_bytes());
  out.chunks.emplace_back(out.owned[1]);
  out.chunks.emplace_back(
      reinterpret_cast<const std::uint8_t*>(settle.data()),
      settle.size_bytes());
  return out;
}

EncodedFrame encode_boundary_response_frame(std::span<const Edge> edges) {
  const std::uint64_t payload_bytes = 8 + edges.size_bytes();
  EncodedFrame out;
  std::vector<std::uint8_t> head;
  head.reserve(kFrameHeaderBytes + 8);
  Writer w(head);
  write_frame_header(w, MessageType::kBoundaryResponse, payload_bytes);
  w.u64(edges.size());
  out.owned.push_back(std::move(head));
  out.chunks.emplace_back(out.owned.back());
  out.chunks.emplace_back(
      reinterpret_cast<const std::uint8_t*>(edges.data()),
      edges.size_bytes());
  return out;
}

}  // namespace mpx::server
