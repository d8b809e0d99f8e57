// Tests for the decomposition-service wire protocol
// (src/server/protocol.hpp): frame-header byte layout pinned against
// docs/PROTOCOL.md, round trips of every message type, and the
// corruption-rejection suite — truncated frames, oversized length
// prefixes, unknown message types, future protocol versions, trailing
// junk, embedded-length overruns, out-of-range enum values. Everything
// malformed must throw ProtocolError; nothing may abort. Mirrors
// test_snapshot.cpp's rejection style for the on-wire format. The
// zero-copy EncodedFrame builders are pinned byte-identical to
// encode_message so the server's vectored writes can never diverge from
// the documented wire layout.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "server/protocol.hpp"

namespace mpx::server {
namespace {

DecompositionRequest sample_request() {
  DecompositionRequest req;
  req.algorithm = "mpx-bucketed";
  req.beta = 0.37;
  req.seed = 0xDEADBEEFCAFEull;
  req.tie_break = TieBreak::kRandomPermutation;
  req.distribution = ShiftDistribution::kUniform;
  req.engine = TraversalEngine::kPull;
  return req;
}

std::span<const std::uint8_t> payload_of(
    const std::vector<std::uint8_t>& frame) {
  return std::span<const std::uint8_t>(frame).subspan(kFrameHeaderBytes);
}

// --- framing ---------------------------------------------------------------

TEST(Protocol, FrameHeaderLayoutMatchesSpec) {
  // docs/PROTOCOL.md "Frame header layout": magic at 0, version u16 at 4,
  // type u16 at 6, payload_bytes u64 at 8, payload at 16.
  const std::vector<std::uint8_t> payload = {0xAA, 0xBB, 0xCC};
  const std::vector<std::uint8_t> frame =
      encode_frame(MessageType::kQueryRequest, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  EXPECT_EQ(frame[0], 'M');
  EXPECT_EQ(frame[1], 'P');
  EXPECT_EQ(frame[2], 'X');
  EXPECT_EQ(frame[3], 'Q');
  EXPECT_EQ(frame[4], kProtocolVersion);  // little-endian u16
  EXPECT_EQ(frame[5], 0);
  EXPECT_EQ(frame[6], 0x03);  // kQueryRequest
  EXPECT_EQ(frame[7], 0);
  std::uint64_t length;
  std::memcpy(&length, frame.data() + 8, sizeof(length));
  EXPECT_EQ(length, payload.size());
  EXPECT_EQ(frame[16], 0xAA);

  const FrameHeader header = decode_frame_header(frame);
  EXPECT_EQ(header.type, MessageType::kQueryRequest);
  EXPECT_EQ(header.payload_bytes, payload.size());
}

TEST(Protocol, RejectsTruncatedFrameHeader) {
  const std::vector<std::uint8_t> frame =
      encode_frame(MessageType::kInfoRequest, {});
  for (const std::size_t keep : {0u, 1u, 4u, 8u, 15u}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    EXPECT_THROW(
        (void)decode_frame_header(
            std::span<const std::uint8_t>(frame.data(), keep)),
        ProtocolError);
  }
}

TEST(Protocol, RejectsBadMagic) {
  std::vector<std::uint8_t> frame = encode_frame(MessageType::kInfoRequest, {});
  frame[0] = 'X';
  EXPECT_THROW((void)decode_frame_header(frame), ProtocolError);
}

TEST(Protocol, RejectsFutureProtocolVersion) {
  std::vector<std::uint8_t> frame = encode_frame(MessageType::kInfoRequest, {});
  frame[4] = kProtocolVersion + 1;
  EXPECT_THROW((void)decode_frame_header(frame), ProtocolError);
  // Version 0 (older than anything we ever spoke) is equally rejected.
  frame[4] = 0;
  EXPECT_THROW((void)decode_frame_header(frame), ProtocolError);
}

TEST(Protocol, RejectsUnknownMessageType) {
  std::vector<std::uint8_t> frame = encode_frame(MessageType::kInfoRequest, {});
  frame[6] = 0x42;  // not a defined type
  EXPECT_THROW((void)decode_frame_header(frame), ProtocolError);
  EXPECT_FALSE(is_known_message_type(0x42));
  EXPECT_TRUE(is_known_message_type(0x01));
  EXPECT_TRUE(is_known_message_type(0xFF));
}

TEST(Protocol, RejectsOversizedLengthPrefix) {
  std::vector<std::uint8_t> frame = encode_frame(MessageType::kRunRequest, {});
  const std::uint64_t huge = kMaxFramePayloadBytes + 1;
  std::memcpy(frame.data() + 8, &huge, sizeof(huge));
  EXPECT_THROW((void)decode_frame_header(frame), ProtocolError);
}

// --- message round trips ---------------------------------------------------

TEST(Protocol, InfoMessagesRoundTrip) {
  EXPECT_EQ(decode_info_request(encode_payload(InfoRequest{})), InfoRequest{});
  InfoResponse info;
  info.num_vertices = 1u << 20;
  info.num_edges = 123456789;
  info.weighted = true;
  info.workers = 8;
  info.requests_served = 42;
  info.cache_hits = 1000;
  info.cache_misses = 37;
  info.cache_evictions = 21;
  EXPECT_EQ(decode_info_response(encode_payload(info)), info);
}

TEST(Protocol, RunRequestRoundTripsEveryEnum) {
  for (const TieBreak tie : {TieBreak::kFractionalShift,
                             TieBreak::kRandomPermutation,
                             TieBreak::kLexicographic}) {
    for (const ShiftDistribution dist :
         {ShiftDistribution::kExponential,
          ShiftDistribution::kPermutationQuantile, ShiftDistribution::kUniform}) {
      for (const TraversalEngine engine :
           {TraversalEngine::kAuto, TraversalEngine::kPush,
            TraversalEngine::kPull}) {
        RunRequest msg;
        msg.request = sample_request();
        msg.request.tie_break = tie;
        msg.request.distribution = dist;
        msg.request.engine = engine;
        msg.include_arrays = true;
        EXPECT_EQ(decode_run_request(encode_payload(msg)), msg);
      }
    }
  }
}

TEST(Protocol, RunResponseRoundTripsWithAndWithoutArrays) {
  RunResponse summary;
  summary.num_clusters = 17;
  summary.rounds = 9;
  summary.phases = 2;
  summary.arcs_scanned = 123456;
  summary.from_cache = true;
  EXPECT_EQ(decode_run_response(encode_payload(summary)), summary);

  RunResponse arrays = summary;
  arrays.has_arrays = true;
  arrays.owner = {0, 0, 2, 2, 4};
  arrays.settle = {0, 1, 0, 1, 0};
  EXPECT_EQ(decode_run_response(encode_payload(arrays)), arrays);

  // mpx-weighted shape: owner populated, settle empty.
  arrays.is_weighted = true;
  arrays.settle.clear();
  EXPECT_EQ(decode_run_response(encode_payload(arrays)), arrays);
}

TEST(Protocol, QueryMessagesRoundTrip) {
  for (const QueryKind kind :
       {QueryKind::kClusterOf, QueryKind::kOwnerOf, QueryKind::kDistance}) {
    QueryRequest msg;
    msg.request = sample_request();
    msg.kind = kind;
    msg.u = 7;
    msg.v = 11;
    EXPECT_EQ(decode_query_request(encode_payload(msg)), msg);
  }
  QueryResponse answer{0xFFFFFFFFull};
  EXPECT_EQ(decode_query_response(encode_payload(answer)), answer);
}

TEST(Protocol, BoundaryMessagesRoundTrip) {
  BoundaryRequest req;
  req.request = sample_request();
  EXPECT_EQ(decode_boundary_request(encode_payload(req)), req);

  BoundaryResponse resp;
  resp.edges = {{0, 1}, {0, 5}, {3, 4}};
  EXPECT_EQ(decode_boundary_response(encode_payload(resp)), resp);
  EXPECT_EQ(decode_boundary_response(encode_payload(BoundaryResponse{})),
            BoundaryResponse{});
}

TEST(Protocol, BatchMessagesRoundTrip) {
  BatchRequest req;
  req.base = sample_request();
  req.betas = {0.5, 0.2, 0.1, 0.05};
  EXPECT_EQ(decode_batch_request(encode_payload(req)), req);

  BatchResponse resp;
  resp.entries = {{0.5, 10, 4, 123}, {0.1, 2, 19, 7}};
  EXPECT_EQ(decode_batch_response(encode_payload(resp)), resp);
}

TEST(Protocol, ShutdownAndErrorMessagesRoundTrip) {
  EXPECT_EQ(decode_shutdown_request(encode_payload(ShutdownRequest{})),
            ShutdownRequest{});
  EXPECT_EQ(decode_shutdown_response(encode_payload(ShutdownResponse{})),
            ShutdownResponse{});
  ErrorResponse err;
  err.code = ErrorCode::kUnsupportedQuery;
  err.message = "distance estimates serve unweighted algorithms";
  EXPECT_EQ(decode_error_response(encode_payload(err)), err);
}

// --- stats (protocol v2) ---------------------------------------------------

/// A stats snapshot exercising every section: counters, a negative gauge,
/// and histograms whose buckets came from real records (sparse, sorted).
StatsResponse sample_stats() {
  StatsResponse msg;
  msg.connections = 3;
  msg.requests = 41;
  msg.errors = 1;
  msg.info_requests = 2;
  msg.run_requests = 17;
  msg.query_requests = 11;
  msg.boundary_requests = 4;
  msg.batch_requests = 5;
  msg.stats_requests = 2;
  msg.accept_backoffs = 6;
  msg.write_timeouts = 1;
  msg.results_computed = 9;
  msg.service_seconds = 0.125;
  msg.store_resident_results = 7;
  msg.store_computes = 9;
  msg.cache_hits = 100;
  msg.cache_misses = 23;
  msg.cache_evictions = 2;
  msg.cache_resident_blocks = 12;
  msg.cache_resident_bytes = 1u << 20;
  msg.metrics.counters = {{"decomp.computes", 9}, {"decomp.rounds", 51}};
  msg.metrics.gauges = {{"cache.resident_blocks", 12},
                        {"server.outbox_bytes", -1}};  // negative survives
  obs::LatencyHistogram h;
  h.record(0);
  h.record(17);
  h.record(123456789);
  h.record(~0ull);
  msg.metrics.histograms = {{"server.service.run", h.snapshot()}};
  return msg;
}

TEST(Protocol, StatsMessagesRoundTrip) {
  EXPECT_EQ(decode_stats_request(encode_payload(StatsRequest{})),
            StatsRequest{});
  EXPECT_TRUE(encode_payload(StatsRequest{}).empty());

  const StatsResponse msg = sample_stats();
  EXPECT_EQ(decode_stats_response(encode_payload(msg)), msg);
  // An all-defaults response (fresh server, empty registry) also survives.
  EXPECT_EQ(decode_stats_response(encode_payload(StatsResponse{})),
            StatsResponse{});
}

TEST(Protocol, StatsEncodingIsCanonical) {
  // decode(encode(x)) == x bytewise: re-encoding the decoded snapshot
  // reproduces the identical payload, so caches may key on the bytes.
  const std::vector<std::uint8_t> wire = encode_payload(sample_stats());
  EXPECT_EQ(encode_payload(decode_stats_response(wire)), wire);
}

TEST(Protocol, StatsResponseLayoutMatchesSpec) {
  // docs/PROTOCOL.md "kStatsResponse payload": format u16 at 0, the twelve
  // lifetime counters at 2, service_seconds f64 at 98, store/cache block
  // at 106, counter section count u32 at 162.
  const StatsResponse msg = sample_stats();
  const std::vector<std::uint8_t> payload = encode_payload(msg);
  std::uint16_t format = 0;
  std::memcpy(&format, payload.data(), sizeof(format));
  EXPECT_EQ(format, kStatsFormatVersion);
  std::uint64_t connections = 0;
  std::memcpy(&connections, payload.data() + 2, sizeof(connections));
  EXPECT_EQ(connections, msg.connections);
  double service_seconds = 0.0;
  std::memcpy(&service_seconds, payload.data() + 98, sizeof(service_seconds));
  EXPECT_EQ(service_seconds, msg.service_seconds);
  std::uint64_t store_resident = 0;
  std::memcpy(&store_resident, payload.data() + 106, sizeof(store_resident));
  EXPECT_EQ(store_resident, msg.store_resident_results);
  std::uint32_t counter_count = 0;
  std::memcpy(&counter_count, payload.data() + 162, sizeof(counter_count));
  EXPECT_EQ(counter_count, msg.metrics.counters.size());

  // 0x07 / 0x87 are v2 message types, framed like any other.
  EXPECT_TRUE(is_known_message_type(0x07));
  EXPECT_TRUE(is_known_message_type(0x87));
  const std::vector<std::uint8_t> frame =
      encode_message(MessageType::kStatsRequest, StatsRequest{});
  EXPECT_EQ(frame[6], 0x07);
  EXPECT_EQ(decode_frame_header(frame).type, MessageType::kStatsRequest);
}

TEST(Protocol, RejectsTruncatedStatsResponseAtEveryLength) {
  const std::vector<std::uint8_t> payload = encode_payload(sample_stats());
  for (std::size_t keep = 0; keep < payload.size(); ++keep) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    EXPECT_THROW(
        (void)decode_stats_response(
            std::span<const std::uint8_t>(payload.data(), keep)),
        ProtocolError);
  }
}

TEST(Protocol, RejectsStatsTrailingJunk) {
  std::vector<std::uint8_t> payload = encode_payload(sample_stats());
  payload.push_back(0x5A);
  EXPECT_THROW((void)decode_stats_response(payload), ProtocolError);
  EXPECT_THROW((void)decode_stats_request({payload.data(), 1}), ProtocolError);
}

TEST(Protocol, RejectsUnsupportedStatsFormat) {
  std::vector<std::uint8_t> payload = encode_payload(sample_stats());
  const std::uint16_t future = kStatsFormatVersion + 1;
  std::memcpy(payload.data(), &future, sizeof(future));
  EXPECT_THROW((void)decode_stats_response(payload), ProtocolError);
  const std::uint16_t zero = 0;
  std::memcpy(payload.data(), &zero, sizeof(zero));
  EXPECT_THROW((void)decode_stats_response(payload), ProtocolError);
}

TEST(Protocol, RejectsStatsMetricNameViolations) {
  // Encode refuses unencodable names outright...
  StatsResponse empty_name = sample_stats();
  empty_name.metrics.counters[0].name.clear();
  EXPECT_THROW((void)encode_payload(empty_name), ProtocolError);
  StatsResponse long_name = sample_stats();
  long_name.metrics.gauges[0].name.assign(obs::kMaxMetricNameBytes + 1, 'x');
  EXPECT_THROW((void)encode_payload(long_name), ProtocolError);
  // ...and decode rejects a zero name length patched onto the wire (the
  // first counter's length prefix lives right after the section count).
  std::vector<std::uint8_t> payload = encode_payload(sample_stats());
  const std::uint16_t zero_len = 0;
  std::memcpy(payload.data() + 166, &zero_len, sizeof(zero_len));
  EXPECT_THROW((void)decode_stats_response(payload), ProtocolError);
}

TEST(Protocol, RejectsStatsSectionsOutOfNameOrder) {
  // Sections are canonically strictly name-sorted; both a swap and a
  // duplicate must be rejected (in every section).
  StatsResponse swapped = sample_stats();
  std::swap(swapped.metrics.counters[0], swapped.metrics.counters[1]);
  EXPECT_THROW((void)decode_stats_response(encode_payload(swapped)),
               ProtocolError);
  StatsResponse duplicate = sample_stats();
  duplicate.metrics.gauges[1].name = duplicate.metrics.gauges[0].name;
  EXPECT_THROW((void)decode_stats_response(encode_payload(duplicate)),
               ProtocolError);
  StatsResponse hist_dup = sample_stats();
  hist_dup.metrics.histograms.push_back(hist_dup.metrics.histograms[0]);
  EXPECT_THROW((void)decode_stats_response(encode_payload(hist_dup)),
               ProtocolError);
}

TEST(Protocol, RejectsStatsHistogramBucketViolations) {
  // Out-of-scheme index.
  StatsResponse bad_index = sample_stats();
  bad_index.metrics.histograms[0].histogram.buckets.back().index =
      static_cast<std::uint16_t>(obs::kHistogramBucketCount);
  EXPECT_THROW((void)decode_stats_response(encode_payload(bad_index)),
               ProtocolError);
  // Buckets not strictly ascending by index.
  StatsResponse unsorted = sample_stats();
  auto& buckets = unsorted.metrics.histograms[0].histogram.buckets;
  ASSERT_GE(buckets.size(), 2u);
  std::swap(buckets.front(), buckets.back());
  EXPECT_THROW((void)decode_stats_response(encode_payload(unsorted)),
               ProtocolError);
  // Occupied buckets only: a zero count is not canonical.
  StatsResponse zero_count = sample_stats();
  zero_count.metrics.histograms[0].histogram.buckets.front().count = 0;
  EXPECT_THROW((void)decode_stats_response(encode_payload(zero_count)),
               ProtocolError);
}

TEST(Protocol, EncodeMessageFramesThePayload) {
  QueryResponse answer{99};
  const std::vector<std::uint8_t> frame =
      encode_message(MessageType::kQueryResponse, answer);
  const FrameHeader header = decode_frame_header(frame);
  EXPECT_EQ(header.type, MessageType::kQueryResponse);
  EXPECT_EQ(decode_query_response(payload_of(frame)), answer);
}

// --- payload corruption ----------------------------------------------------

TEST(Protocol, RejectsTruncatedPayloadAtEveryLength) {
  RunRequest msg;
  msg.request = sample_request();
  const std::vector<std::uint8_t> payload = encode_payload(msg);
  for (std::size_t keep = 0; keep < payload.size(); ++keep) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    EXPECT_THROW(
        (void)decode_run_request(
            std::span<const std::uint8_t>(payload.data(), keep)),
        ProtocolError);
  }
}

TEST(Protocol, RejectsTrailingJunkOnEveryMessage) {
  const auto with_junk = [](std::vector<std::uint8_t> payload) {
    payload.push_back(0x5A);
    return payload;
  };
  RunRequest run;
  run.request = sample_request();
  EXPECT_THROW((void)decode_info_request(with_junk(encode_payload(
                   InfoRequest{}))),
               ProtocolError);
  EXPECT_THROW((void)decode_run_request(with_junk(encode_payload(run))),
               ProtocolError);
  EXPECT_THROW((void)decode_query_response(with_junk(encode_payload(
                   QueryResponse{1}))),
               ProtocolError);
  EXPECT_THROW((void)decode_shutdown_request(with_junk(encode_payload(
                   ShutdownRequest{}))),
               ProtocolError);
  BatchResponse batch;
  batch.entries = {{0.5, 1, 1, 1}};
  EXPECT_THROW((void)decode_batch_response(with_junk(encode_payload(batch))),
               ProtocolError);
}

TEST(Protocol, RejectsAlgorithmLengthOverrunningThePayload) {
  RunRequest msg;
  msg.request = sample_request();
  std::vector<std::uint8_t> payload = encode_payload(msg);
  // The leading u16 is the algorithm length; claim more than exists.
  const std::uint16_t huge = 250;
  std::memcpy(payload.data(), &huge, sizeof(huge));
  EXPECT_THROW((void)decode_run_request(payload), ProtocolError);
  // Zero-length ids are equally invalid.
  const std::uint16_t zero = 0;
  std::memcpy(payload.data(), &zero, sizeof(zero));
  EXPECT_THROW((void)decode_run_request(payload), ProtocolError);
}

TEST(Protocol, RejectsOutOfRangeEnums) {
  RunRequest msg;
  msg.request = sample_request();
  const std::vector<std::uint8_t> good = encode_payload(msg);
  // The three enum bytes sit directly before the trailing include_arrays
  // flag: ... tie_break, distribution, engine, include_arrays.
  for (const std::size_t back_offset : {2u, 3u, 4u}) {
    std::vector<std::uint8_t> bad = good;
    bad[bad.size() - back_offset] = 99;
    SCOPED_TRACE("back_offset=" + std::to_string(back_offset));
    EXPECT_THROW((void)decode_run_request(bad), ProtocolError);
  }
  // And the query kind byte (before the two u32 vertex ids).
  QueryRequest query;
  query.request = sample_request();
  std::vector<std::uint8_t> bad_query = encode_payload(query);
  bad_query[bad_query.size() - 9] = 99;
  EXPECT_THROW((void)decode_query_request(bad_query), ProtocolError);
}

TEST(Protocol, RejectsArrayCountsExceedingThePayload) {
  RunResponse msg;
  msg.has_arrays = true;
  msg.owner = {1, 2, 3};
  msg.settle = {1, 2, 3};
  std::vector<std::uint8_t> payload = encode_payload(msg);
  // The owner count u64 follows the fixed 23-byte summary prefix.
  const std::size_t count_at = 23;
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(payload.data() + count_at, &huge, sizeof(huge));
  EXPECT_THROW((void)decode_run_response(payload), ProtocolError);
}

TEST(Protocol, RejectsSettleCountDisagreeingWithOwner) {
  RunResponse msg;
  msg.has_arrays = true;
  msg.owner = {1, 2, 3};
  msg.settle = {1, 2, 3};
  std::vector<std::uint8_t> payload = encode_payload(msg);
  // Rewrite the settle count (after summary + owner count + 3 owners)
  // from 3 to 2 and drop one settle word: well-formed lengths, but the
  // settle array no longer matches the owner array.
  const std::size_t settle_count_at = 23 + 8 + 3 * sizeof(vertex_t);
  const std::uint64_t two = 2;
  std::memcpy(payload.data() + settle_count_at, &two, sizeof(two));
  payload.resize(payload.size() - sizeof(std::uint32_t));
  EXPECT_THROW((void)decode_run_response(payload), ProtocolError);
}

TEST(Protocol, RejectsBoundaryEdgesViolatingTheOrderContract) {
  BoundaryResponse msg;
  msg.edges = {{3, 1}};  // u >= v: the wire contract requires u < v
  const std::vector<std::uint8_t> payload = encode_payload(msg);
  EXPECT_THROW((void)decode_boundary_response(payload), ProtocolError);
}

TEST(Protocol, RejectsBatchLaddersOverTheLimit) {
  BatchRequest msg;
  msg.base = sample_request();
  msg.betas.assign(kMaxBatchBetas, 0.1);
  const std::vector<std::uint8_t> good = encode_payload(msg);  // at the cap
  EXPECT_EQ(decode_batch_request(good).betas.size(), kMaxBatchBetas);

  // One over the cap is rejected on encode...
  msg.betas.push_back(0.1);
  EXPECT_THROW((void)encode_payload(msg), ProtocolError);
  // ...and a forged on-wire count is rejected before the beta reads (the
  // count u32 sits directly after the encoded base request).
  std::vector<std::uint8_t> forged = good;
  const std::size_t count_at = forged.size() - kMaxBatchBetas * 8 - 4;
  const std::uint32_t huge = kMaxBatchBetas + 1;
  std::memcpy(forged.data() + count_at, &huge, sizeof(huge));
  EXPECT_THROW((void)decode_batch_request(forged), ProtocolError);
}

TEST(Protocol, RejectsOverlongAlgorithmOnEncode) {
  RunRequest msg;
  msg.request = sample_request();
  msg.request.algorithm.assign(300, 'x');
  EXPECT_THROW((void)encode_payload(msg), ProtocolError);
  msg.request.algorithm.clear();
  EXPECT_THROW((void)encode_payload(msg), ProtocolError);
}

// --- zero-copy framing ------------------------------------------------------

TEST(Protocol, ZeroCopyRunFrameIsByteIdenticalToEncodeMessage) {
  RunResponse msg;
  msg.num_clusters = 5;
  msg.is_weighted = false;
  msg.from_cache = true;
  msg.rounds = 7;
  msg.phases = 3;
  msg.arcs_scanned = 12345;
  msg.has_arrays = true;
  msg.owner = {3, 3, 0, 7, 7, 7, 1, 0};
  msg.settle = {0, 1, 1, 2, 2, 3, 3, 4};
  const std::vector<std::uint8_t> expected =
      encode_message(MessageType::kRunResponse, msg);

  // The arrays reach the zero-copy encoder as borrowed spans; the
  // summary's own vectors must be ignored.
  RunResponse summary = msg;
  summary.owner.clear();
  summary.settle.clear();
  const EncodedFrame frame =
      encode_run_response_frame(summary, msg.owner, msg.settle);
  EXPECT_EQ(frame.total_bytes(), expected.size());
  EXPECT_EQ(frame.flatten(), expected);
  // The array bytes really are borrowed, not copied: some chunk aliases
  // the owner vector's storage.
  const auto* owner_bytes =
      reinterpret_cast<const std::uint8_t*>(msg.owner.data());
  bool borrowed = false;
  for (const auto& chunk : frame.chunks) {
    if (chunk.data() == owner_bytes) borrowed = true;
  }
  EXPECT_TRUE(borrowed);
}

TEST(Protocol, ZeroCopyRunFrameHandlesEmptySettleAndNoArrays) {
  // mpx-weighted results carry owner but no settle array.
  RunResponse weighted;
  weighted.num_clusters = 2;
  weighted.is_weighted = true;
  weighted.arcs_scanned = 9;
  weighted.has_arrays = true;
  weighted.owner = {1, 1, 0};
  const EncodedFrame with_empty_settle =
      encode_run_response_frame(weighted, weighted.owner, weighted.settle);
  EXPECT_EQ(with_empty_settle.flatten(),
            encode_message(MessageType::kRunResponse, weighted));

  // has_arrays = false selects the arrayless layout; the spans are unused.
  RunResponse summary_only = weighted;
  summary_only.has_arrays = false;
  summary_only.owner.clear();
  const EncodedFrame arrayless =
      encode_run_response_frame(summary_only, weighted.owner, weighted.settle);
  EXPECT_EQ(arrayless.flatten(),
            encode_message(MessageType::kRunResponse, summary_only));
}

TEST(Protocol, ZeroCopyBoundaryFrameIsByteIdenticalToEncodeMessage) {
  BoundaryResponse msg;
  msg.edges = {{0, 1}, {0, 3}, {2, 5}, {4, 5}};
  EXPECT_EQ(encode_boundary_response_frame(msg.edges).flatten(),
            encode_message(MessageType::kBoundaryResponse, msg));
  // The empty cut is a valid (header + zero-count) frame too.
  EXPECT_EQ(encode_boundary_response_frame({}).flatten(),
            encode_message(MessageType::kBoundaryResponse, BoundaryResponse{}));
}

TEST(Protocol, ZeroCopyFramesSurviveMoves) {
  // The server moves EncodedFrames into a connection's outbox; the spans
  // must stay valid because they view heap storage, not the struct.
  RunResponse msg;
  msg.num_clusters = 1;
  msg.has_arrays = true;
  msg.owner = {0, 0};
  msg.settle = {0, 1};
  const std::vector<std::uint8_t> expected =
      encode_message(MessageType::kRunResponse, msg);
  EncodedFrame frame = encode_run_response_frame(msg, msg.owner, msg.settle);
  const EncodedFrame moved = std::move(frame);
  EXPECT_EQ(moved.flatten(), expected);
}

TEST(Protocol, HotPathQueryFramesAreByteIdenticalToEncodeMessage) {
  QueryRequest msg;
  msg.request = sample_request();
  msg.kind = QueryKind::kDistance;
  msg.u = 7;
  msg.v = 11;
  const std::vector<std::uint8_t> expected =
      encode_message(MessageType::kQueryRequest, msg);
  // Start from stale contents: the encoder must rebuild, not append.
  std::vector<std::uint8_t> frame{0xAA, 0xBB, 0xCC};
  encode_query_request_frame_into(frame, msg);
  EXPECT_EQ(frame, expected);
  encode_query_request_frame_into(frame, msg.request, msg.kind, msg.u, msg.v);
  EXPECT_EQ(frame, expected);

  QueryResponse answer{0x123456789ABCDEF0ull};
  encode_query_response_frame_into(frame, answer);
  EXPECT_EQ(frame, encode_message(MessageType::kQueryResponse, answer));
}

TEST(Protocol, MakeOwnedFrameWrapsContiguousBytes) {
  const std::vector<std::uint8_t> wire =
      encode_message(MessageType::kInfoRequest, InfoRequest{});
  const EncodedFrame frame = make_owned_frame(std::vector<std::uint8_t>(wire));
  ASSERT_EQ(frame.chunks.size(), 1u);
  EXPECT_EQ(frame.total_bytes(), wire.size());
  EXPECT_EQ(frame.flatten(), wire);
}

TEST(Protocol, RejectsErrorResponseCorruption) {
  ErrorResponse err;
  err.code = ErrorCode::kInternal;
  err.message = "boom";
  std::vector<std::uint8_t> payload = encode_payload(err);
  // Out-of-range code.
  const std::uint32_t bad_code = 77;
  std::memcpy(payload.data(), &bad_code, sizeof(bad_code));
  EXPECT_THROW((void)decode_error_response(payload), ProtocolError);
  // Message length overrunning the payload.
  payload = encode_payload(err);
  const std::uint32_t huge = 4097;
  std::memcpy(payload.data() + 4, &huge, sizeof(huge));
  EXPECT_THROW((void)decode_error_response(payload), ProtocolError);
}

}  // namespace
}  // namespace mpx::server
