// ConGrid -- binary writer.
//
// Everything ConGrid puts on the wire -- pipe payloads, service control
// messages, checkpoints, module artifacts -- is encoded with this writer and
// decoded with serial::Reader. The format is deliberately simple:
//
//   * fixed-width integers are little-endian;
//   * unsigned integers that are usually small (lengths, counts, ids) are
//     encoded as LEB128 varints;
//   * strings and blobs are a varint length followed by raw bytes;
//   * doubles are the IEEE-754 bit pattern, little-endian.
//
// The writer never throws; it only appends to an owned buffer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serial/bytes.hpp"

namespace cg::serial {

/// Append-only binary encoder producing the ConGrid wire format.
class Writer {
 public:
  Writer() = default;

  /// Reserve capacity up front when the final size is roughly known.
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  // -- fixed-width primitives (little-endian) ------------------------------
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);

  // -- variable-width -------------------------------------------------------
  /// Unsigned LEB128 varint; 1 byte for values < 128.
  void varint(std::uint64_t v);
  /// Zig-zag encoded signed varint.
  void svarint(std::int64_t v);

  // -- composites ------------------------------------------------------------
  /// Varint length + raw bytes.
  void string(std::string_view s);
  /// Varint length + raw bytes.
  void blob(std::span<const std::uint8_t> b);
  /// Varint count + each element as f64 (one resize, then bulk stores).
  void f64_vector(std::span<const double> v);
  /// Raw bytes with no length prefix (caller knows the size).
  void raw(std::span<const std::uint8_t> b);

  /// Bytes written so far.
  std::size_t size() const { return buf_.size(); }

  /// Access the encoded bytes without giving up ownership.
  const Bytes& bytes() const& { return buf_; }

  /// Move the encoded bytes out (writer becomes empty but reusable).
  Bytes take() { return std::move(buf_); }

 private:
  /// Extend the buffer by `n` bytes; returns where they start.
  std::uint8_t* grow(std::size_t n);

  Bytes buf_;
};

/// Bytes Writer::varint(v) appends: 1 for v < 128, up to 10.
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

}  // namespace cg::serial
