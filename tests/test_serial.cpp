// Tests for the cg_serial substrate: writer/reader round-trips, varint edge
// cases, CRC-32 known answers, frame encode/decode and stream reassembly.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>

#include "serial/crc32.hpp"
#include "serial/frame.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace cg::serial {
namespace {

TEST(Writer, FixedWidthLittleEndian) {
  Writer w;
  w.u16(0x1234);
  w.u32(0xAABBCCDD);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 0x34);
  EXPECT_EQ(b[1], 0x12);
  EXPECT_EQ(b[2], 0xDD);
  EXPECT_EQ(b[3], 0xCC);
  EXPECT_EQ(b[4], 0xBB);
  EXPECT_EQ(b[5], 0xAA);
}

TEST(Writer, RoundTripPrimitives) {
  Writer w;
  w.u8(200);
  w.u16(65535);
  w.u32(4000000000u);
  w.u64(0xDEADBEEFCAFEBABEull);
  w.i32(-123456);
  w.i64(-9876543210);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 4000000000u);
  EXPECT_EQ(r.u64(), 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(r.i32(), -123456);
  EXPECT_EQ(r.i64(), -9876543210);
  EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.at_end());
}

TEST(Writer, F64PreservesSpecialValues) {
  Writer w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::denorm_min());
  Reader r(w.bytes());
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  double nz = r.f64();
  EXPECT_EQ(nz, 0.0);
  EXPECT_TRUE(std::signbit(nz));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, Unsigned) {
  Writer w;
  w.varint(GetParam());
  Reader r(w.bytes());
  EXPECT_EQ(r.varint(), GetParam());
  EXPECT_TRUE(r.at_end());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 129ull, 16383ull, 16384ull,
                      (1ull << 32) - 1, 1ull << 32, (1ull << 56) + 12345,
                      std::numeric_limits<std::uint64_t>::max()));

TEST(Varint, SmallValuesAreOneByte) {
  for (std::uint64_t v = 0; v < 128; ++v) {
    Writer w;
    w.varint(v);
    EXPECT_EQ(w.size(), 1u) << v;
  }
}

class SvarintRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SvarintRoundTrip, Signed) {
  Writer w;
  w.svarint(GetParam());
  Reader r(w.bytes());
  EXPECT_EQ(r.svarint(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, SvarintRoundTrip,
    ::testing::Values(0ll, 1ll, -1ll, 63ll, -64ll, 64ll, -65ll, 1234567ll,
                      -1234567ll, std::numeric_limits<std::int64_t>::max(),
                      std::numeric_limits<std::int64_t>::min()));

TEST(Svarint, ZigZagKeepsSmallNegativesShort) {
  Writer w;
  w.svarint(-1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(StringBlob, RoundTrip) {
  Writer w;
  w.string("hello consumer grid");
  w.string("");
  Bytes payload = {0, 1, 2, 254, 255};
  w.blob(payload);
  std::vector<double> xs = {1.5, -2.5, 0.0};
  w.f64_vector(xs);

  Reader r(w.bytes());
  EXPECT_EQ(r.string(), "hello consumer grid");
  EXPECT_EQ(r.string(), "");
  EXPECT_EQ(r.blob(), payload);
  EXPECT_EQ(r.f64_vector(), xs);
  EXPECT_TRUE(r.at_end());
}

TEST(StringBlob, EmbeddedNulSurvives) {
  Writer w;
  std::string s("a\0b", 3);
  w.string(s);
  Reader r(w.bytes());
  EXPECT_EQ(r.string(), s);
}

TEST(Reader, TruncatedInputThrows) {
  Writer w;
  w.u32(42);
  Bytes b = w.take();
  b.pop_back();
  Reader r(b);
  EXPECT_THROW(r.u32(), DecodeError);
}

TEST(Reader, TruncatedStringThrows) {
  Writer w;
  w.varint(100);  // claims 100 bytes follow; none do
  Reader r(w.bytes());
  EXPECT_THROW(r.string(), DecodeError);
}

TEST(Reader, OverlongVarintThrows) {
  Bytes b(11, 0x80);  // 11 continuation bytes, never terminates
  Reader r(b);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Reader, HugeF64VectorCountThrows) {
  // Absurd element counts with no data. From 2^61 up, count * 8 wraps
  // past 2^64, so a guard that multiplies would let them through.
  for (const std::uint64_t n :
       {1ull << 40, 1ull << 61, (1ull << 61) + 1, (1ull << 62) + 1,
        ~0ull}) {
    Writer w;
    w.varint(n);
    w.f64(1.0);
    Reader r(w.bytes());
    EXPECT_THROW(r.f64_vector(), DecodeError) << "count " << n;
  }
}

TEST(Reader, F64VectorOneElementShortThrows) {
  Writer w;
  w.f64_vector(std::vector<double>{1.0, 2.0, 3.0});
  Bytes b = w.bytes();
  b.pop_back();
  Reader r(b);
  EXPECT_THROW(r.f64_vector(), DecodeError);
}

TEST(Reader, RemainingTracksConsumption) {
  Writer w;
  w.u32(1);
  w.u32(2);
  Reader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  r.u32();
  EXPECT_TRUE(r.at_end());
}

TEST(Crc32, KnownAnswers) {
  // Standard check value for "123456789".
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

/// The reference CRC-32: one table lookup per byte. crc32() must agree
/// with it on every length, alignment and seed.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicingBy8MatchesBytewiseOracle) {
  Bytes data(1100 + 8);
  std::uint32_t x = 0x12345678u;
  for (auto& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  // Every length 0..1100 at every start offset mod 8; each result seeds
  // the next call, so the running value exercises arbitrary seeds too.
  std::uint32_t fast = 0;
  std::uint32_t slow = 0;
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      fast = crc32(data.data() + off, len, fast);
      slow = crc32_bytewise(data.data() + off, len, slow);
      ASSERT_EQ(fast, slow) << "offset " << off << " length " << len;
      ASSERT_EQ(crc32(data.data() + off, len),
                crc32_bytewise(data.data() + off, len, 0))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<std::uint8_t>(i));
  const std::uint32_t oneshot = crc32(data);
  std::uint32_t running = 0;
  running = crc32(data.data(), 400, running);
  running = crc32(data.data() + 400, 600, running);
  EXPECT_EQ(running, oneshot);
}

TEST(Frame, GoldenWireBytes) {
  Frame f;
  f.type = FrameType::kData;
  const std::string check = "123456789";
  f.payload.assign(check.begin(), check.end());
  const Bytes expected = {
      0x43, 0x47, 0x46, 0x31,  // magic "CGF1"
      0x02,                    // kData
      0x09, 0x00, 0x00, 0x00,  // payload length
      '1', '2', '3', '4', '5', '6', '7', '8', '9',
      0x26, 0x39, 0xF4, 0xCB,  // CRC-32 check value 0xCBF43926
  };
  EXPECT_EQ(encode_frame(f), expected);

  // The scatter-gather pieces are the same bytes around the payload.
  Bytes pieces;
  const FrameHeader h = encode_frame_header(f);
  const FrameTrailer t = encode_frame_trailer(f);
  pieces.insert(pieces.end(), h.begin(), h.end());
  pieces.insert(pieces.end(), f.payload.begin(), f.payload.end());
  pieces.insert(pieces.end(), t.begin(), t.end());
  EXPECT_EQ(pieces, expected);
}

TEST(Frame, EncodeDecodeRoundTrip) {
  Frame f;
  f.type = FrameType::kData;
  f.payload = {1, 2, 3, 4, 5};
  Bytes wire = encode_frame(f);
  EXPECT_EQ(wire.size(),
            kFrameHeaderSize + f.payload.size() + kFrameTrailerSize);

  FrameDecoder d;
  d.feed(wire);
  auto out = d.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, FrameType::kData);
  EXPECT_EQ(out->payload, f.payload);
  EXPECT_FALSE(d.next().has_value());
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(Frame, EmptyPayload) {
  Frame f;
  f.type = FrameType::kHeartbeat;
  FrameDecoder d;
  d.feed(encode_frame(f));
  auto out = d.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->payload.empty());
}

TEST(Frame, ByteAtATimeReassembly) {
  Frame f;
  f.type = FrameType::kControl;
  f.payload = serial::to_bytes("<msg kind='ping'/>");
  Bytes wire = encode_frame(f);

  FrameDecoder d;
  std::optional<Frame> out;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    d.feed(&wire[i], 1);
    out = d.next();
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(out.has_value()) << "frame completed early at byte " << i;
    }
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(serial::to_string(out->payload), "<msg kind='ping'/>");
}

TEST(Frame, MultipleFramesInOneChunk) {
  Bytes wire;
  for (int i = 0; i < 5; ++i) {
    Frame f;
    f.type = FrameType::kData;
    f.payload = {static_cast<std::uint8_t>(i)};
    Bytes one = encode_frame(f);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  FrameDecoder d;
  d.feed(wire);
  for (int i = 0; i < 5; ++i) {
    auto f = d.next();
    ASSERT_TRUE(f.has_value()) << i;
    EXPECT_EQ(f->payload[0], i);
  }
  EXPECT_FALSE(d.next().has_value());
}

TEST(Frame, BadMagicThrows) {
  Frame f;
  f.payload = {9, 9, 9};
  Bytes wire = encode_frame(f);
  wire[0] ^= 0xFF;
  FrameDecoder d;
  d.feed(wire);
  EXPECT_THROW(d.next(), DecodeError);
}

TEST(Frame, CorruptPayloadFailsCrc) {
  Frame f;
  f.payload = {9, 9, 9};
  Bytes wire = encode_frame(f);
  wire[kFrameHeaderSize] ^= 0x01;  // flip a payload bit
  FrameDecoder d;
  d.feed(wire);
  EXPECT_THROW(d.next(), DecodeError);
}

TEST(Envelope, RoundTripPreservesIdTypeAndPayload) {
  Frame inner;
  inner.type = FrameType::kControl;
  inner.payload = {1, 2, 3, 4, 5};
  Frame env = encode_envelope(0xDEADBEEFCAFEull, inner);
  EXPECT_EQ(env.type, FrameType::kReliable);

  ReliableEnvelope e = decode_envelope(env);
  EXPECT_EQ(e.msg_id, 0xDEADBEEFCAFEull);
  EXPECT_EQ(e.inner.type, FrameType::kControl);
  EXPECT_EQ(e.inner.payload, inner.payload);
}

TEST(Envelope, EmptyInnerPayload) {
  Frame inner;
  inner.type = FrameType::kHeartbeat;
  ReliableEnvelope e = decode_envelope(encode_envelope(7, inner));
  EXPECT_EQ(e.msg_id, 7u);
  EXPECT_EQ(e.inner.type, FrameType::kHeartbeat);
  EXPECT_TRUE(e.inner.payload.empty());
}

TEST(Envelope, InPlaceUnwrapMatchesCopyingDecode) {
  Frame inner;
  inner.type = FrameType::kData;
  for (int i = 0; i < 1000; ++i) {
    inner.payload.push_back(static_cast<std::uint8_t>(i * 7));
  }
  const obs::TraceContext ctx{11, 22, 33};
  const Frame env = encode_envelope(42, inner, ctx);
  const ReliableEnvelope copied = decode_envelope(env);
  Frame moved = env;
  const ReliableEnvelope in_place = decode_envelope(std::move(moved));
  EXPECT_EQ(in_place.msg_id, 42u);
  EXPECT_EQ(in_place.trace.trace_id, 11u);
  EXPECT_EQ(in_place.trace.parent_span, 22u);
  EXPECT_EQ(in_place.trace.lamport, 33u);
  EXPECT_EQ(in_place.inner.type, FrameType::kData);
  EXPECT_EQ(in_place.inner.payload, inner.payload);
  EXPECT_EQ(copied.inner.payload, inner.payload);
}

TEST(Envelope, TruncatedEnvelopeThrowsAndIsLeftIntact) {
  // msg id + trace context + inner type is 33 bytes; 32 is one short.
  Frame f;
  f.type = FrameType::kReliable;
  f.payload.assign(32, 0xAB);
  EXPECT_THROW(decode_envelope(f), DecodeError);
  EXPECT_THROW(decode_envelope(std::move(f)), DecodeError);
  EXPECT_EQ(f.payload, Bytes(32, 0xAB));  // NOLINT(bugprone-use-after-move)
  // Exactly the header: an empty inner payload.
  f.payload.assign(33, 0);
  EXPECT_TRUE(decode_envelope(std::move(f)).inner.payload.empty());
}

TEST(Envelope, WrongFrameTypeThrows) {
  Frame f;
  f.type = FrameType::kControl;
  f.payload = {0, 0, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_THROW(decode_envelope(f), DecodeError);
}

TEST(Envelope, TraceContextRoundTrips) {
  Frame inner;
  inner.type = FrameType::kData;
  inner.payload = {8, 9};
  const obs::TraceContext ctx{0x1122334455667788ull, 42, 17};
  ReliableEnvelope e = decode_envelope(encode_envelope(5, inner, ctx));
  EXPECT_EQ(e.msg_id, 5u);
  EXPECT_EQ(e.trace.trace_id, ctx.trace_id);
  EXPECT_EQ(e.trace.parent_span, ctx.parent_span);
  EXPECT_EQ(e.trace.lamport, ctx.lamport);
  EXPECT_EQ(e.inner.payload, inner.payload);
}

TEST(Envelope, DefaultTraceContextIsZeroFilled) {
  Frame inner;
  inner.type = FrameType::kControl;
  ReliableEnvelope e = decode_envelope(encode_envelope(1, inner));
  EXPECT_EQ(e.trace.trace_id, 0u);
  EXPECT_EQ(e.trace.parent_span, 0u);
  EXPECT_EQ(e.trace.lamport, 0u);
}

TEST(Envelope, WireSizeIndependentOfTraceContent) {
  // The scheduling-invariance bedrock: a traced envelope and an untraced
  // one are byte-for-byte the same length, so link latencies (a function
  // of frame size in SimNetwork) cannot depend on observability state.
  Frame inner;
  inner.type = FrameType::kData;
  inner.payload = {1, 2, 3};
  const Frame bare = encode_envelope(9, inner);
  const Frame traced =
      encode_envelope(9, inner, obs::TraceContext{~0ull, ~0ull, ~0ull});
  EXPECT_EQ(bare.payload.size(), traced.payload.size());
}

TEST(Envelope, PeekReadsTraceWithoutFullDecode) {
  Frame inner;
  inner.type = FrameType::kData;
  inner.payload = std::vector<std::uint8_t>(1024, 0xAB);
  const obs::TraceContext ctx{77, 3, 12};
  const Frame env = encode_envelope(2, inner, ctx);
  const obs::TraceContext peeked = peek_envelope_trace(env);
  EXPECT_EQ(peeked.trace_id, 77u);
  EXPECT_EQ(peeked.parent_span, 3u);
  EXPECT_EQ(peeked.lamport, 12u);

  Frame not_reliable;
  not_reliable.type = FrameType::kControl;
  EXPECT_THROW(peek_envelope_trace(not_reliable), DecodeError);
  Frame truncated = env;
  truncated.payload.resize(8);  // msg id only, trace slot sheared off
  EXPECT_THROW(peek_envelope_trace(truncated), DecodeError);
}

TEST(Ack, RoundTrip) {
  Frame a = encode_ack(99);
  EXPECT_EQ(a.type, FrameType::kAck);
  EXPECT_EQ(decode_ack(a), 99u);
}

TEST(Ack, RejectsWrongTypeAndTrailingBytes) {
  Frame f;
  f.type = FrameType::kControl;
  f.payload = encode_ack(1).payload;
  EXPECT_THROW(decode_ack(f), DecodeError);

  Frame trailing = encode_ack(1);
  trailing.payload.push_back(0xFF);
  EXPECT_THROW(decode_ack(trailing), DecodeError);
}

TEST(Frame, OversizedLengthRejected) {
  Writer w;
  w.u32(0x31464743u);  // magic
  w.u8(1);
  w.u32(static_cast<std::uint32_t>(kMaxFramePayload + 1));
  FrameDecoder d;
  d.feed(w.bytes());
  EXPECT_THROW(d.next(), DecodeError);
}

TEST(Batch, RoundTripPreservesOrderTypesAndPayloads) {
  std::vector<Frame> in;
  in.push_back({FrameType::kControl, Bytes{1, 2, 3}});
  in.push_back({FrameType::kAck, Bytes{}});
  in.push_back({FrameType::kReliable, Bytes(300, 0xAB)});

  Frame b = encode_batch(in);
  EXPECT_EQ(b.type, FrameType::kBatch);

  auto out = decode_batch(b);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].type, in[i].type);
    EXPECT_EQ(out[i].payload, in[i].payload);
  }
}

TEST(Batch, PerEntryOverheadBeatsStandaloneFraming) {
  // The point of batching: N small frames cost 5 bytes each inside a batch
  // versus 13 bytes of magic/header/CRC each standalone.
  std::vector<Frame> in(10, Frame{FrameType::kAck, Bytes{0, 1, 2, 3}});
  Frame b = encode_batch(in);
  const std::size_t batched_wire = encode_frame(b).size();
  std::size_t standalone_wire = 0;
  for (const Frame& f : in) standalone_wire += encode_frame(f).size();
  EXPECT_LT(batched_wire, standalone_wire);
}

TEST(Batch, RejectsNestingAndBadCounts) {
  std::vector<Frame> empty;
  EXPECT_THROW(encode_batch(empty), std::invalid_argument);

  std::vector<Frame> nested;
  nested.push_back(encode_batch(std::vector<Frame>{
      Frame{FrameType::kAck, Bytes{1}}}));
  EXPECT_THROW(encode_batch(nested), std::invalid_argument);

  Frame not_batch{FrameType::kData, Bytes{0, 0}};
  EXPECT_THROW(decode_batch(not_batch), DecodeError);
}

TEST(Batch, MalformedPayloadsThrowNotCrash) {
  Frame b = encode_batch(std::vector<Frame>{
      Frame{FrameType::kControl, Bytes{1, 2, 3, 4}}});

  Frame truncated = b;
  truncated.payload.resize(truncated.payload.size() - 2);
  EXPECT_THROW(decode_batch(truncated), DecodeError);

  Frame trailing = b;
  trailing.payload.push_back(0x00);
  EXPECT_THROW(decode_batch(trailing), DecodeError);

  Frame zero_count = b;
  zero_count.payload[0] = 0;
  zero_count.payload[1] = 0;
  EXPECT_THROW(decode_batch(zero_count), DecodeError);

  // Entry length field pointing past the payload end.
  Frame bad_len = b;
  bad_len.payload[3] = 0xFF;
  bad_len.payload[4] = 0xFF;
  EXPECT_THROW(decode_batch(bad_len), DecodeError);
}

TEST(Batch, SurvivesFrameRoundTrip) {
  std::vector<Frame> in;
  for (int i = 0; i < 64; ++i) {
    in.push_back({FrameType::kReliable,
                  Bytes(static_cast<std::size_t>(i % 7), static_cast<std::uint8_t>(i))});
  }
  Bytes wire = encode_frame(encode_batch(in));
  FrameDecoder d;
  d.feed(wire);
  auto f = d.next();
  ASSERT_TRUE(f.has_value());
  auto out = decode_batch(*f);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].payload, in[i].payload);
  }
}

TEST(FrameDecoderCursor, DrainsManySmallFramesAcrossFeeds) {
  // Exercises the parse-cursor path: many frames in one buffer, drained
  // with interleaved feeds, leaving partial frames buffered across calls.
  FrameDecoder d;
  Bytes wire;
  constexpr int kFrames = 500;
  for (int i = 0; i < kFrames; ++i) {
    Frame f{FrameType::kData, Bytes{static_cast<std::uint8_t>(i & 0xFF)}};
    Bytes one = encode_frame(f);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  // Feed in uneven chunks so frames straddle feed boundaries.
  std::size_t off = 0;
  int got = 0;
  std::size_t chunk = 1;
  while (off < wire.size()) {
    const std::size_t n = std::min(chunk, wire.size() - off);
    d.feed(wire.data() + off, n);
    off += n;
    chunk = (chunk * 7 + 3) % 97 + 1;
    while (auto f = d.next()) {
      EXPECT_EQ(f->payload[0], static_cast<std::uint8_t>(got & 0xFF));
      ++got;
    }
  }
  EXPECT_EQ(got, kFrames);
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(FrameDecoderCursor, RecvSpanCommitFeedsDecoder) {
  // The zero-copy read path: "receive" into recv_span, commit the actual
  // byte count, parse as usual.
  Frame f{FrameType::kControl, Bytes{9, 8, 7}};
  Bytes wire = encode_frame(f);

  FrameDecoder d;
  // Deliver in two reads with an oversized span (short read) each time.
  const std::size_t half = wire.size() / 2;
  auto s1 = d.recv_span(1024);
  std::copy(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(half),
            s1.begin());
  d.commit(half);
  EXPECT_FALSE(d.next().has_value());

  auto s2 = d.recv_span(1024);
  std::copy(wire.begin() + static_cast<std::ptrdiff_t>(half), wire.end(),
            s2.begin());
  d.commit(wire.size() - half);

  auto got = d.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, f.type);
  EXPECT_EQ(got->payload, f.payload);
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(FrameDecoderCursor, UnbalancedRecvSpanIsALogicError) {
  FrameDecoder d;
  (void)d.recv_span(16);
  EXPECT_THROW((void)d.recv_span(16), std::logic_error);
  EXPECT_THROW((void)d.next(), std::logic_error);
  EXPECT_THROW(d.feed(nullptr, 0), std::logic_error);
  d.commit(0);  // balances; decoder usable again
  EXPECT_FALSE(d.next().has_value());
  EXPECT_THROW(d.commit(0), std::logic_error);
}

}  // namespace
}  // namespace cg::serial
