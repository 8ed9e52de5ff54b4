// ConGrid -- byte-buffer primitives shared by the serialization layer.
//
// Pipe payloads, task-graph attachments and module artifacts all travel as
// flat byte vectors; this header pins down the one representation everything
// agrees on so module boundaries never disagree about ownership or layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cg::serial {

/// Owning, contiguous byte buffer. All ConGrid wire payloads use this type.
using Bytes = std::vector<std::uint8_t>;

/// Convert a string to a byte buffer (no terminator is appended).
inline Bytes to_bytes(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

/// Convert a byte buffer back to a string (bytes are taken verbatim).
inline std::string to_string(const Bytes& b) {
  return std::string(b.begin(), b.end());
}

// -- little-endian loads and stores -------------------------------------------
//
// Written as byte shifts so they are correct on any host; GCC and Clang merge
// each pattern into one unaligned load or store on little-endian targets.

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline std::uint64_t load_le64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_le32(p)) |
         static_cast<std::uint64_t>(load_le32(p + 4)) << 32;
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  store_le32(p, static_cast<std::uint32_t>(v));
  store_le32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

}  // namespace cg::serial
