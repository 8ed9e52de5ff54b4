#include "apps/gw/search.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/stats.hpp"

namespace cg::gw {

SearchResult scan_chunk(const std::vector<double>& data,
                        const TemplateBank& bank, std::size_t first,
                        std::size_t count) {
  if (first >= bank.size()) {
    throw std::out_of_range("scan_chunk: template range outside bank");
  }
  const std::size_t last = std::min(bank.size(), first + count);

  // Noise sigma estimate from the data itself (robust enough for white
  // synthetic noise).
  const double sigma = std::max(1e-12, dsp::rms(data));

  // One data spectrum serves every template. Its length comes from the
  // whole bank's longest template, not this slice's, so a template's SNR
  // is the same whichever slice scans it.
  const std::size_t n = dsp::next_pow2(data.size() + bank.longest() - 1);
  const auto data_half = dsp::rfft(data, n);

  SearchResult result;
  for (std::size_t i = first; i < last; ++i) {
    const auto& tmpl = bank.waveform(i);
    const auto match = dsp::matched_filter(data_half, data.size(), tmpl);
    // matched_filter normalises by sqrt(template energy); dividing by
    // sigma*sqrt(1) yields the familiar SNR-like statistic whose noise-only
    // expectation is O(1).
    const double snr = match.peak / sigma;
    if (snr > result.best_snr) {
      result.best_snr = snr;
      result.best_template = i;
      result.best_offset = match.offset;
    }
    ++result.templates_scanned;
  }
  return result;
}

}  // namespace cg::gw
