// Wire format: frame framing, request/reply round trips, bounds-checked
// decoding, content hashes, retry/backoff schedule — all over in-memory
// streams, with the transport fault injectors exercised against the frame
// reader.
#include <gtest/gtest.h>

#include <cstring>

#include "reference/fault_injection.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"

namespace qs::service {
namespace {

SolveRequest sample_request() {
  SolveRequest request;
  request.nu = 10;
  request.landscape = LandscapeKind::single_peak;
  request.param0 = 12.5;
  request.param1 = 1.25;
  request.seed = 42;
  request.p = 0.0125;
  request.tolerance = 1e-11;
  request.max_iterations = 123456;
  request.deadline_ms = 1500;
  return request;
}

SolveReply sample_reply() {
  SolveReply reply;
  reply.status = StatusCode::ok;
  reply.eigenvalue = 9.876543210123;
  reply.residual = 3.14e-12;
  reply.iterations = 271828;
  reply.class_concentrations = {0.5, 0.25, 0.125, 0.125};
  reply.message = "diagnostic";
  reply.cache_hit = true;
  reply.queue_wait_ms = 1.75;
  reply.batch_width = 8;
  reply.deadline_slack_ms = -4.5;
  return reply;
}

TEST(Protocol, RequestRoundTripsBitExactly) {
  const SolveRequest request = sample_request();
  const SolveRequest decoded = decode_request(encode(request));
  EXPECT_EQ(decoded.nu, request.nu);
  EXPECT_EQ(decoded.landscape, request.landscape);
  EXPECT_EQ(std::memcmp(&decoded.param0, &request.param0, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&decoded.param1, &request.param1, sizeof(double)), 0);
  EXPECT_EQ(decoded.seed, request.seed);
  EXPECT_EQ(std::memcmp(&decoded.p, &request.p, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&decoded.tolerance, &request.tolerance, sizeof(double)), 0);
  EXPECT_EQ(decoded.max_iterations, request.max_iterations);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
}

TEST(Protocol, ReplyRoundTripsBitExactly) {
  const SolveReply reply = sample_reply();
  const SolveReply decoded = decode_reply(encode(reply));
  EXPECT_EQ(decoded.status, reply.status);
  EXPECT_EQ(std::memcmp(&decoded.eigenvalue, &reply.eigenvalue, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&decoded.residual, &reply.residual, sizeof(double)), 0);
  EXPECT_EQ(decoded.iterations, reply.iterations);
  ASSERT_EQ(decoded.class_concentrations.size(), reply.class_concentrations.size());
  EXPECT_EQ(std::memcmp(decoded.class_concentrations.data(),
                        reply.class_concentrations.data(),
                        reply.class_concentrations.size() * sizeof(double)),
            0);
  EXPECT_EQ(decoded.message, reply.message);
  EXPECT_EQ(decoded.cache_hit, reply.cache_hit);
  EXPECT_EQ(decoded.batch_width, reply.batch_width);
}

TEST(Protocol, TruncatedPayloadThrowsStructuredError) {
  std::vector<std::uint8_t> payload = encode(sample_request());
  payload.resize(payload.size() / 2);
  EXPECT_THROW(decode_request(payload), ProtocolError);
}

TEST(Protocol, TrailingBytesAreRejected) {
  std::vector<std::uint8_t> payload = encode(sample_request());
  payload.push_back(0);
  EXPECT_THROW(decode_request(payload), ProtocolError);
}

TEST(Protocol, ReplyWithAbsurdVectorLengthIsRejectedBeforeAllocating) {
  // Corrupt the class_concentrations count (the u64 right after the
  // message) to a near-2^64 value: the decoder must reject it against the
  // remaining byte count, not allocate.  The trace-id u64 tail sits after
  // the vector, so step over it when locating the count.
  SolveReply reply = sample_reply();
  reply.message.clear();
  std::vector<std::uint8_t> payload = encode(reply);
  const std::size_t count_at =
      payload.size() - sizeof(std::uint64_t) -
      reply.class_concentrations.size() * sizeof(double) - 8;
  const std::uint64_t absurd = ~0ull;
  std::memcpy(payload.data() + count_at, &absurd, sizeof(absurd));
  EXPECT_THROW(decode_reply(payload), ProtocolError);
}

TEST(Protocol, TraceTailRoundTripsOnRequestsAndReplies) {
  SolveRequest request = sample_request();
  request.trace_id = 0xABCDEF0123456789ull;
  request.client_send_ns = 0x1122334455667788ull;
  const SolveRequest decoded = decode_request(encode(request));
  EXPECT_EQ(decoded.trace_id, request.trace_id);
  EXPECT_EQ(decoded.client_send_ns, request.client_send_ns);

  SolveReply reply = sample_reply();
  reply.trace_id = 0xFEDCBA9876543210ull;
  EXPECT_EQ(decode_reply(encode(reply)).trace_id, reply.trace_id);
}

TEST(Protocol, TailLessV1PayloadsDecodeWithTraceFieldsZero) {
  // A frame from a pre-telemetry peer ends where the v1 body ends; the
  // decoder must treat the absent tail as untraced, not as truncation.
  SolveRequest request = sample_request();
  request.trace_id = 7;  // encoded, then stripped below
  request.client_send_ns = 9;
  std::vector<std::uint8_t> payload = encode(request);
  payload.resize(payload.size() - 2 * sizeof(std::uint64_t));
  const SolveRequest decoded = decode_request(payload);
  EXPECT_EQ(decoded.trace_id, 0u);
  EXPECT_EQ(decoded.client_send_ns, 0u);
  EXPECT_EQ(decoded.nu, request.nu);  // v1 body intact

  SolveReply reply = sample_reply();
  reply.trace_id = 7;
  std::vector<std::uint8_t> reply_payload = encode(reply);
  reply_payload.resize(reply_payload.size() - sizeof(std::uint64_t));
  const SolveReply decoded_reply = decode_reply(reply_payload);
  EXPECT_EQ(decoded_reply.trace_id, 0u);
  EXPECT_EQ(decoded_reply.iterations, reply.iterations);
}

TEST(Protocol, TraceFieldsNeverChangeContentHashes) {
  // Tracing is an annotation, not content: a traced request must hit the
  // cache entry its untraced twin stored, and coalesce into its batches.
  const SolveRequest plain = sample_request();
  SolveRequest traced = plain;
  traced.trace_id = 0xDEADBEEFull;
  traced.client_send_ns = 123456789;
  EXPECT_EQ(scenario_key(plain), scenario_key(traced));
  EXPECT_EQ(scenario_fingerprint(plain), scenario_fingerprint(traced));
  EXPECT_EQ(batch_key(plain), batch_key(traced));
}

TEST(Protocol, ScenarioKeyIgnoresDeadlineButSeesEveryAnswerField) {
  const SolveRequest base = sample_request();
  SolveRequest other = base;
  other.deadline_ms = 99999;  // scheduling, not content
  EXPECT_EQ(scenario_key(base), scenario_key(other));

  other = base;
  other.p = 0.013;
  EXPECT_NE(scenario_key(base), scenario_key(other));
  other = base;
  other.param1 = 1.26;
  EXPECT_NE(scenario_key(base), scenario_key(other));
  other = base;
  other.tolerance = 1e-10;
  EXPECT_NE(scenario_key(base), scenario_key(other));

  // Seed is content only for the random landscape.
  other = base;
  other.seed = 777;
  EXPECT_EQ(scenario_key(base), scenario_key(other));
  SolveRequest random_base = base;
  random_base.landscape = LandscapeKind::random;
  random_base.param0 = 10.0;
  random_base.param1 = 2.0;
  SolveRequest random_other = random_base;
  random_other.seed = 777;
  EXPECT_NE(scenario_key(random_base), scenario_key(random_other));
}

TEST(Protocol, BatchKeyGroupsByMutationModelOnly) {
  const SolveRequest base = sample_request();
  SolveRequest other = base;
  other.param0 = 99.0;  // different landscape, same (nu, p)
  other.landscape = LandscapeKind::linear;
  EXPECT_EQ(batch_key(base), batch_key(other));
  other = base;
  other.p = 0.02;
  EXPECT_NE(batch_key(base), batch_key(other));
  other = base;
  other.nu = 11;
  EXPECT_NE(batch_key(base), batch_key(other));
}

TEST(Protocol, ValidateCatchesBadScenarios) {
  EXPECT_TRUE(validate(sample_request()).empty());
  SolveRequest bad = sample_request();
  bad.p = 0.0;
  EXPECT_FALSE(validate(bad).empty());
  bad = sample_request();
  bad.nu = 0;
  EXPECT_FALSE(validate(bad).empty());
  bad = sample_request();
  bad.tolerance = -1.0;
  EXPECT_FALSE(validate(bad).empty());
  bad = sample_request();
  bad.landscape = LandscapeKind::random;
  bad.param0 = 1.0;
  bad.param1 = 0.9;  // sigma >= c/2
  EXPECT_FALSE(validate(bad).empty());
}

TEST(Frames, RoundTripOverMemoryStreams) {
  testing::MemoryStream a;
  testing::MemoryStream b;
  a.wire_to(&b);
  b.wire_to(&a);

  Frame frame{FrameType::solve_request, encode(sample_request())};
  write_frame(a, frame);
  const Frame got = read_frame(b);
  EXPECT_EQ(got.type, FrameType::solve_request);
  EXPECT_EQ(got.payload, frame.payload);
}

TEST(Frames, StatsFramesCarryOpaqueTextPayloads) {
  testing::MemoryStream a;
  testing::MemoryStream b;
  a.wire_to(&b);
  b.wire_to(&a);

  write_frame(a, Frame{FrameType::stats_request, {}});
  EXPECT_EQ(read_frame(b).type, FrameType::stats_request);

  const std::string text = "# stats\nqs_uptime_seconds 1.5\n";
  Frame reply{FrameType::stats_reply,
              std::vector<std::uint8_t>(text.begin(), text.end())};
  write_frame(a, reply);
  const Frame got = read_frame(b);
  EXPECT_EQ(got.type, FrameType::stats_reply);
  EXPECT_EQ(std::string(got.payload.begin(), got.payload.end()), text);
}

TEST(Frames, BadMagicAndOversizedLengthAreRejected) {
  testing::MemoryStream a;
  testing::MemoryStream b;
  a.wire_to(&b);
  b.wire_to(&a);

  struct {
    std::uint32_t magic, type;
    std::uint64_t length;
  } header{0xdeadbeef, 1, 0};
  a.write_all(&header, sizeof(header));
  EXPECT_THROW(read_frame(b), ProtocolError);

  header.magic = 0x51535256;
  header.length = kMaxFramePayload + 1;  // must be rejected BEFORE allocation
  a.write_all(&header, sizeof(header));
  EXPECT_THROW(read_frame(b), ProtocolError);
}

TEST(Frames, CorruptedBytesOnTheWireFailStructurally) {
  auto reader = std::make_unique<testing::MemoryStream>();
  testing::MemoryStream writer;
  writer.wire_to(reader.get());
  write_frame(writer, Frame{FrameType::ping, {}});

  // Corrupt the first read (the frame header) — the magic check fires.
  testing::FaultInjectingStream::Config config;
  config.corrupt_at_read = 1;
  testing::FaultInjectingStream faulty(std::move(reader), config);
  EXPECT_THROW(read_frame(faulty), ProtocolError);
}

TEST(Frames, ShortReadSurfacesAsTransportError) {
  auto reader = std::make_unique<testing::MemoryStream>();
  testing::MemoryStream writer;
  writer.wire_to(reader.get());
  write_frame(writer, Frame{FrameType::solve_request, encode(sample_request())});

  testing::FaultInjectingStream::Config config;
  config.short_read_at = 2;  // header reads fine; the payload read tears
  testing::FaultInjectingStream faulty(std::move(reader), config);
  EXPECT_THROW(read_frame(faulty), TransportError);
}

TEST(Frames, DroppedAndStalledReadsKeepTheirErrorTypes) {
  auto reader = std::make_unique<testing::MemoryStream>();
  testing::MemoryStream writer;
  writer.wire_to(reader.get());
  write_frame(writer, Frame{FrameType::ping, {}});
  {
    testing::FaultInjectingStream::Config config;
    config.drop_at_read = 1;
    testing::FaultInjectingStream faulty(std::move(reader), config);
    EXPECT_THROW(read_frame(faulty), TransportError);
  }
  auto reader2 = std::make_unique<testing::MemoryStream>();
  writer.wire_to(reader2.get());
  write_frame(writer, Frame{FrameType::ping, {}});
  {
    testing::FaultInjectingStream::Config config;
    config.delay_at_read = 1;
    testing::FaultInjectingStream faulty(std::move(reader2), config);
    // A stall is a TimeoutError — retryably distinct from a dead peer.
    EXPECT_THROW(read_frame(faulty), TimeoutError);
  }
}

TEST(Backoff, ScheduleIsBoundedDeterministicAndJittered) {
  RetryPolicy policy;
  policy.base_delay_ms = 100;
  policy.max_delay_ms = 400;
  policy.multiplier = 2.0;
  policy.jitter = 0.5;

  std::uint64_t state = 7;
  std::uint64_t state_copy = 7;
  for (unsigned attempt = 1; attempt <= 6; ++attempt) {
    const std::uint64_t d = backoff_delay_ms(policy, state, attempt);
    const std::uint64_t nominal =
        std::min<std::uint64_t>(400, 100ull << (attempt - 1));
    EXPECT_LE(d, nominal);
    EXPECT_GE(d, nominal / 2);  // jitter shrinks by at most 50%
    // Same seed, same attempt: identical draw (reproducible tests).
    EXPECT_EQ(d, backoff_delay_ms(policy, state_copy, attempt));
  }
}

TEST(Backoff, RetryableCoversExactlyTheNeverStartedCodes) {
  EXPECT_TRUE(retryable(StatusCode::rejected_overload));
  EXPECT_TRUE(retryable(StatusCode::shutting_down));
  EXPECT_FALSE(retryable(StatusCode::ok));
  EXPECT_FALSE(retryable(StatusCode::bad_request));
  EXPECT_FALSE(retryable(StatusCode::solver_failure));
  EXPECT_FALSE(retryable(StatusCode::deadline_exceeded));
  EXPECT_FALSE(retryable(StatusCode::cancelled));
  EXPECT_FALSE(retryable(StatusCode::internal_error));
}

}  // namespace
}  // namespace qs::service
