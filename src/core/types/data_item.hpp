// ConGrid -- the typed data model flowing between units.
//
// Triana "provides a set of built-in data types that can be used to connect
// different Peer services -- and undertake type checking on their
// connectivity" (paper 3.1; the workflow example carries
// triana.types.SampleSet). ConGrid's DataItem is a closed variant over the
// types the built-in unit library manipulates: scalars, text, sampled
// signals, spectra, image frames and small relational tables. Ports declare
// which alternatives they accept via a type mask, and graph validation
// rejects incompatible connections before anything runs.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "serial/bytes.hpp"

namespace cg::serial {
class Writer;
}  // namespace cg::serial

namespace cg::core {

/// A uniformly sampled real signal (triana.types.SampleSet analogue).
struct SampleSet {
  double sample_rate = 1.0;  ///< Hz
  std::vector<double> samples;
  bool operator==(const SampleSet&) const = default;
};

/// A one-sided power spectrum.
struct SpectrumData {
  double bin_width = 1.0;  ///< Hz per bin
  std::vector<double> power;
  bool operator==(const SpectrumData&) const = default;
};

/// A dense grayscale raster (galaxy-animation frames).
struct ImageFrame {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::vector<double> pixels;  ///< row-major, width*height
  bool operator==(const ImageFrame&) const = default;
};

/// A small relational table (database-access scenario).
struct Table {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  bool operator==(const Table&) const = default;
};

/// Discriminants, also used as bits in port type masks.
enum class DataType : std::uint8_t {
  kEmpty = 0,
  kScalar = 1,
  kInteger = 2,
  kText = 3,
  kSampleSet = 4,
  kSpectrum = 5,
  kImage = 6,
  kTable = 7,
};

/// Bitmask helpers for PortSpec::accepts.
constexpr std::uint32_t type_bit(DataType t) {
  return 1u << static_cast<std::uint8_t>(t);
}
constexpr std::uint32_t kAnyType = 0xFFFFFFFFu;

/// The value travelling along a connection.
class DataItem {
 public:
  DataItem() = default;
  DataItem(double v) : value_(v) {}                       // NOLINT(runtime/explicit)
  DataItem(std::int64_t v) : value_(v) {}                 // NOLINT
  DataItem(std::string v) : value_(std::move(v)) {}       // NOLINT
  DataItem(SampleSet v) : value_(std::move(v)) {}         // NOLINT
  DataItem(SpectrumData v) : value_(std::move(v)) {}      // NOLINT
  DataItem(ImageFrame v) : value_(std::move(v)) {}        // NOLINT
  DataItem(Table v) : value_(std::move(v)) {}             // NOLINT

  DataType type() const {
    return static_cast<DataType>(value_.index());
  }
  bool empty() const { return type() == DataType::kEmpty; }

  /// Typed accessors; throw std::bad_variant_access on mismatch.
  double scalar() const { return std::get<double>(value_); }
  std::int64_t integer() const { return std::get<std::int64_t>(value_); }
  const std::string& text() const { return std::get<std::string>(value_); }
  const SampleSet& samples() const { return std::get<SampleSet>(value_); }
  const SpectrumData& spectrum() const {
    return std::get<SpectrumData>(value_);
  }
  const ImageFrame& image() const { return std::get<ImageFrame>(value_); }
  const Table& table() const { return std::get<Table>(value_); }

  /// Approximate payload size (for bandwidth accounting).
  std::size_t byte_size() const;

  bool operator==(const DataItem&) const = default;

 private:
  std::variant<std::monostate, double, std::int64_t, std::string, SampleSet,
               SpectrumData, ImageFrame, Table>
      value_;
};

/// Human-readable type name ("sample-set", "spectrum", ...).
std::string data_type_name(DataType t);

/// Binary codec: DataItems travel over pipes and inside checkpoints.
serial::Bytes encode_data_item(const DataItem& item);
DataItem decode_data_item(const serial::Bytes& bytes);

/// Append the encoding of `item` to `w`: exactly encoded_size(item) bytes,
/// the same ones encode_data_item returns. Lets a sender encode straight
/// into an outgoing frame.
void encode_data_item(const DataItem& item, serial::Writer& w);
/// Exact size of the encoding, computed without encoding.
std::size_t encoded_size(const DataItem& item);

}  // namespace cg::core
