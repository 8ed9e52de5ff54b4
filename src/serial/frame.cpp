#include "serial/frame.hpp"

#include <cstring>

#include "serial/crc32.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace cg::serial {
namespace {
// "CGF1" little-endian: ConGrid Frame version 1.
constexpr std::uint32_t kMagic = 0x31464743u;

/// msg id | trace context | inner type: what precedes the inner payload.
constexpr std::size_t kEnvelopeHeaderSize = 8 + obs::kTraceContextWireSize + 1;

/// Decode everything but the inner payload.
ReliableEnvelope decode_envelope_header(const Frame& f) {
  if (f.type != FrameType::kReliable) {
    throw DecodeError("decode_envelope: frame is not kReliable");
  }
  Reader r(f.payload);
  ReliableEnvelope e;
  e.msg_id = r.u64();
  e.trace.trace_id = r.u64();
  e.trace.parent_span = r.u64();
  e.trace.lamport = r.u64();
  e.inner.type = static_cast<FrameType>(r.u8());
  return e;
}

}  // namespace

FrameHeader encode_frame_header(const Frame& f) {
  FrameHeader h;
  store_le32(h.data(), kMagic);
  h[4] = static_cast<std::uint8_t>(f.type);
  store_le32(h.data() + 5, static_cast<std::uint32_t>(f.payload.size()));
  return h;
}

FrameTrailer encode_frame_trailer(const Frame& f) {
  FrameTrailer t;
  store_le32(t.data(), crc32(f.payload));
  return t;
}

Bytes encode_frame(const Frame& f) {
  Writer w(kFrameHeaderSize + f.payload.size() + kFrameTrailerSize);
  w.raw(encode_frame_header(f));
  w.raw(f.payload);
  w.raw(encode_frame_trailer(f));
  return w.take();
}

Frame encode_envelope(std::uint64_t msg_id, const Frame& inner,
                      const obs::TraceContext& trace) {
  Writer w(kEnvelopeHeaderSize + inner.payload.size());
  w.u64(msg_id);
  w.u64(trace.trace_id);
  w.u64(trace.parent_span);
  w.u64(trace.lamport);
  w.u8(static_cast<std::uint8_t>(inner.type));
  w.raw(inner.payload);
  Frame f;
  f.type = FrameType::kReliable;
  f.payload = w.take();
  return f;
}

ReliableEnvelope decode_envelope(const Frame& f) {
  ReliableEnvelope e = decode_envelope_header(f);
  e.inner.payload.assign(f.payload.begin() + kEnvelopeHeaderSize,
                         f.payload.end());
  return e;
}

ReliableEnvelope decode_envelope(Frame&& f) {
  ReliableEnvelope e = decode_envelope_header(f);
  f.payload.erase(f.payload.begin(),
                  f.payload.begin() + kEnvelopeHeaderSize);
  e.inner.payload = std::move(f.payload);
  return e;
}

obs::TraceContext peek_envelope_trace(const Frame& f) {
  if (f.type != FrameType::kReliable) {
    throw DecodeError("peek_envelope_trace: frame is not kReliable");
  }
  if (f.payload.size() < 8 + obs::kTraceContextWireSize) {
    throw DecodeError("peek_envelope_trace: truncated envelope");
  }
  Reader r(std::span<const std::uint8_t>(f.payload.data() + 8,
                                         obs::kTraceContextWireSize));
  obs::TraceContext trace;
  trace.trace_id = r.u64();
  trace.parent_span = r.u64();
  trace.lamport = r.u64();
  return trace;
}

Frame encode_ack(std::uint64_t msg_id) {
  Writer w(8);
  w.u64(msg_id);
  Frame f;
  f.type = FrameType::kAck;
  f.payload = w.take();
  return f;
}

std::uint64_t decode_ack(const Frame& f) {
  if (f.type != FrameType::kAck) {
    throw DecodeError("decode_ack: frame is not kAck");
  }
  Reader r(f.payload);
  const std::uint64_t id = r.u64();
  if (!r.at_end()) throw DecodeError("decode_ack: trailing bytes");
  return id;
}

Frame encode_batch(std::span<const Frame> frames) {
  if (frames.empty() || frames.size() > kMaxBatchFrames) {
    throw std::invalid_argument("encode_batch: bad frame count");
  }
  std::size_t total = 2;
  for (const Frame& f : frames) {
    if (f.type == FrameType::kBatch) {
      throw std::invalid_argument("encode_batch: batches do not nest");
    }
    total += kBatchEntryOverhead + f.payload.size();
  }
  Writer w(total);
  w.u16(static_cast<std::uint16_t>(frames.size()));
  for (const Frame& f : frames) {
    w.u8(static_cast<std::uint8_t>(f.type));
    w.u32(static_cast<std::uint32_t>(f.payload.size()));
    w.raw(f.payload);
  }
  Frame out;
  out.type = FrameType::kBatch;
  out.payload = w.take();
  return out;
}

std::vector<Frame> decode_batch(const Frame& f) {
  if (f.type != FrameType::kBatch) {
    throw DecodeError("decode_batch: frame is not kBatch");
  }
  Reader r(f.payload);
  const std::uint16_t count = r.u16();
  if (count == 0 || count > kMaxBatchFrames) {
    throw DecodeError("decode_batch: bad frame count");
  }
  std::vector<Frame> out;
  out.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    Frame sub;
    sub.type = static_cast<FrameType>(r.u8());
    if (sub.type == FrameType::kBatch) {
      throw DecodeError("decode_batch: nested batch");
    }
    const std::uint32_t len = r.u32();
    if (len > kMaxFramePayload) throw DecodeError("decode_batch: entry too large");
    sub.payload = r.raw(len);
    out.push_back(std::move(sub));
  }
  if (!r.at_end()) throw DecodeError("decode_batch: trailing bytes");
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t len) {
  if (recv_base_ != kNoRecv) {
    throw std::logic_error("FrameDecoder: feed() with a recv_span outstanding");
  }
  compact();
  buf_.insert(buf_.end(), data, data + len);
}

std::span<std::uint8_t> FrameDecoder::recv_span(std::size_t min_bytes) {
  if (recv_base_ != kNoRecv) {
    throw std::logic_error("FrameDecoder: recv_span() called twice");
  }
  compact();
  recv_base_ = buf_.size();
  buf_.resize(recv_base_ + min_bytes);
  return {buf_.data() + recv_base_, min_bytes};
}

void FrameDecoder::commit(std::size_t n) {
  if (recv_base_ == kNoRecv) {
    throw std::logic_error("FrameDecoder: commit() without recv_span()");
  }
  if (recv_base_ + n > buf_.size()) {
    throw std::logic_error("FrameDecoder: commit() larger than recv_span()");
  }
  buf_.resize(recv_base_ + n);
  recv_base_ = kNoRecv;
}

void FrameDecoder::compact() {
  if (pos_ == 0) return;
  if (pos_ == buf_.size()) {
    buf_.clear();
  } else {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
  }
  pos_ = 0;
}

std::optional<Frame> FrameDecoder::next() {
  if (recv_base_ != kNoRecv) {
    throw std::logic_error("FrameDecoder: next() with a recv_span outstanding");
  }
  if (buffered() < kFrameHeaderSize) return std::nullopt;

  const std::uint8_t* base = buf_.data() + pos_;
  Reader header(std::span<const std::uint8_t>(base, kFrameHeaderSize));
  std::uint32_t magic = header.u32();
  if (magic != kMagic) throw DecodeError("bad frame magic");
  auto type = static_cast<FrameType>(header.u8());
  std::uint32_t len = header.u32();
  if (len > kMaxFramePayload) throw DecodeError("frame payload too large");

  const std::size_t total = kFrameHeaderSize + len + kFrameTrailerSize;
  if (buffered() < total) return std::nullopt;

  // CRC-check in place, before the payload is copied out.
  const std::span<const std::uint8_t> body(base + kFrameHeaderSize, len);
  Reader trailer(std::span<const std::uint8_t>(base + kFrameHeaderSize + len,
                                               kFrameTrailerSize));
  if (trailer.u32() != crc32(body.data(), body.size())) {
    throw DecodeError("frame CRC mismatch");
  }

  Frame f;
  f.type = type;
  f.payload.assign(body.begin(), body.end());

  pos_ += total;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return f;
}

}  // namespace cg::serial
