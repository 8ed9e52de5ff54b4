#include "serial/writer.hpp"

#include <bit>

namespace cg::serial {

std::uint8_t* Writer::grow(std::size_t n) {
  const std::size_t at = buf_.size();
  buf_.resize(at + n);
  return buf_.data() + at;
}

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) { store_le32(grow(4), v); }

void Writer::u64(std::uint64_t v) { store_le64(grow(8), v); }

void Writer::i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::svarint(std::int64_t v) {
  // Zig-zag: maps small negative numbers to small unsigned numbers.
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void Writer::string(std::string_view s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::blob(std::span<const std::uint8_t> b) {
  varint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void Writer::f64_vector(std::span<const double> v) {
  varint(v.size());
  // One resize, then one 8-byte store per element.
  std::uint8_t* out = grow(v.size() * 8);
  for (double x : v) {
    store_le64(out, std::bit_cast<std::uint64_t>(x));
    out += 8;
  }
}

void Writer::raw(std::span<const std::uint8_t> b) {
  buf_.insert(buf_.end(), b.begin(), b.end());
}

}  // namespace cg::serial
