// ConGrid -- CRC-32 (IEEE 802.3 polynomial) used to guard framed messages.
#pragma once

#include <cstddef>
#include <cstdint>

#include "serial/bytes.hpp"

namespace cg::serial {

/// Compute the CRC-32 checksum (reflected, polynomial 0xEDB88320) of a
/// byte range. `seed` allows incremental computation: pass the previous
/// result to continue a running checksum across multiple chunks.
/// Portable slicing-by-8: two 32-bit loads and eight table lookups per
/// eight bytes, byte-at-a-time for the tail.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed = 0);

/// Convenience overload over an owning buffer.
std::uint32_t crc32(const Bytes& data, std::uint32_t seed = 0);

}  // namespace cg::serial
