#include "core/types/data_item.hpp"

#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace cg::core {

std::size_t DataItem::byte_size() const {
  switch (type()) {
    case DataType::kEmpty: return 1;
    case DataType::kScalar: return 9;
    case DataType::kInteger: return 9;
    case DataType::kText: return 1 + text().size();
    case DataType::kSampleSet: return 9 + samples().samples.size() * 8;
    case DataType::kSpectrum: return 9 + spectrum().power.size() * 8;
    case DataType::kImage: return 9 + image().pixels.size() * 8;
    case DataType::kTable: {
      std::size_t n = 1;
      for (const auto& c : table().columns) n += c.size() + 1;
      for (const auto& r : table().rows) {
        for (const auto& cell : r) n += cell.size() + 1;
      }
      return n;
    }
  }
  return 1;
}

std::string data_type_name(DataType t) {
  switch (t) {
    case DataType::kEmpty: return "empty";
    case DataType::kScalar: return "scalar";
    case DataType::kInteger: return "integer";
    case DataType::kText: return "text";
    case DataType::kSampleSet: return "sample-set";
    case DataType::kSpectrum: return "spectrum";
    case DataType::kImage: return "image";
    case DataType::kTable: return "table";
  }
  return "empty";
}

serial::Bytes encode_data_item(const DataItem& item) {
  serial::Writer w(encoded_size(item));
  encode_data_item(item, w);
  return w.take();
}

std::size_t encoded_size(const DataItem& item) {
  using serial::varint_size;
  const auto str = [](const std::string& s) {
    return varint_size(s.size()) + s.size();
  };
  const auto f64s = [](const std::vector<double>& v) {
    return varint_size(v.size()) + v.size() * 8;
  };
  switch (item.type()) {
    case DataType::kEmpty: return 1;
    case DataType::kScalar: return 9;
    case DataType::kInteger: return 9;
    case DataType::kText: return 1 + str(item.text());
    case DataType::kSampleSet: return 9 + f64s(item.samples().samples);
    case DataType::kSpectrum: return 9 + f64s(item.spectrum().power);
    case DataType::kImage: return 9 + f64s(item.image().pixels);
    case DataType::kTable: {
      const Table& t = item.table();
      std::size_t n = 1 + varint_size(t.columns.size()) +
                      varint_size(t.rows.size());
      for (const auto& c : t.columns) n += str(c);
      for (const auto& r : t.rows) {
        for (const auto& cell : r) n += str(cell);
      }
      return n;
    }
  }
  return 1;
}

void encode_data_item(const DataItem& item, serial::Writer& w) {
  w.u8(static_cast<std::uint8_t>(item.type()));
  switch (item.type()) {
    case DataType::kEmpty:
      break;
    case DataType::kScalar:
      w.f64(item.scalar());
      break;
    case DataType::kInteger:
      w.i64(item.integer());
      break;
    case DataType::kText:
      w.string(item.text());
      break;
    case DataType::kSampleSet:
      w.f64(item.samples().sample_rate);
      w.f64_vector(item.samples().samples);
      break;
    case DataType::kSpectrum:
      w.f64(item.spectrum().bin_width);
      w.f64_vector(item.spectrum().power);
      break;
    case DataType::kImage:
      w.u32(item.image().width);
      w.u32(item.image().height);
      w.f64_vector(item.image().pixels);
      break;
    case DataType::kTable: {
      const Table& t = item.table();
      w.varint(t.columns.size());
      for (const auto& c : t.columns) w.string(c);
      w.varint(t.rows.size());
      for (const auto& r : t.rows) {
        if (r.size() != t.columns.size()) {
          throw std::invalid_argument("table row arity mismatch");
        }
        for (const auto& cell : r) w.string(cell);
      }
      break;
    }
  }
}

DataItem decode_data_item(const serial::Bytes& bytes) {
  serial::Reader r(bytes);
  const auto t = static_cast<DataType>(r.u8());
  switch (t) {
    case DataType::kEmpty:
      return DataItem();
    case DataType::kScalar:
      return DataItem(r.f64());
    case DataType::kInteger:
      return DataItem(static_cast<std::int64_t>(r.i64()));
    case DataType::kText:
      return DataItem(r.string());
    case DataType::kSampleSet: {
      SampleSet s;
      s.sample_rate = r.f64();
      s.samples = r.f64_vector();
      return DataItem(std::move(s));
    }
    case DataType::kSpectrum: {
      SpectrumData s;
      s.bin_width = r.f64();
      s.power = r.f64_vector();
      return DataItem(std::move(s));
    }
    case DataType::kImage: {
      ImageFrame f;
      f.width = r.u32();
      f.height = r.u32();
      f.pixels = r.f64_vector();
      if (f.pixels.size() !=
          static_cast<std::size_t>(f.width) * f.height) {
        throw serial::DecodeError("image pixel count mismatch");
      }
      return DataItem(std::move(f));
    }
    case DataType::kTable: {
      Table tb;
      const std::uint64_t ncols = r.varint();
      for (std::uint64_t i = 0; i < ncols; ++i) {
        tb.columns.push_back(r.string());
      }
      const std::uint64_t nrows = r.varint();
      for (std::uint64_t i = 0; i < nrows; ++i) {
        std::vector<std::string> row;
        for (std::uint64_t j = 0; j < ncols; ++j) row.push_back(r.string());
        tb.rows.push_back(std::move(row));
      }
      return DataItem(std::move(tb));
    }
  }
  throw serial::DecodeError("unknown DataItem type tag");
}

}  // namespace cg::core
