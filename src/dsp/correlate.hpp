// ConGrid -- FFT-based correlation / matched filtering.
//
// Implements the "fast correlation on the data set with each template"
// operation at the heart of the inspiral-search scenario (paper 3.6.2).
// The direct O(N*M) correlation is also provided as a cross-check and for
// the M1 micro-benchmark comparing the two.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/fft.hpp"

namespace cg::dsp {

/// Result of scanning a data stretch with one template.
struct MatchResult {
  double peak = 0.0;        ///< maximum normalised correlation value
  std::size_t offset = 0;   ///< sample offset of the maximum
};

/// Circular cross-correlation of `data` with `tmpl` computed via FFT.
/// Both inputs are zero-padded to the next power of two that fits
/// data.size() + tmpl.size() - 1, so the result is effectively linear
/// correlation; the returned series has data.size() valid lags.
std::vector<double> fast_correlate(const std::vector<double>& data,
                                   const std::vector<double>& tmpl);

/// Direct (time-domain) linear correlation -- O(N*M) reference.
std::vector<double> direct_correlate(const std::vector<double>& data,
                                     const std::vector<double>& tmpl);

/// The best match in a correlation series of `tmpl` against some data:
/// the largest |corr[i]| divided by sqrt(template energy), so peaks are
/// comparable across templates. Throws on a zero-energy template.
MatchResult normalised_peak(const std::vector<double>& corr,
                            const std::vector<double>& tmpl);

/// Normalised matched filter: correlate `data` against a unit-energy copy
/// of `tmpl` and report the best match, i.e.
/// normalised_peak(fast_correlate(data, tmpl), tmpl).
MatchResult matched_filter(const std::vector<double>& data,
                           const std::vector<double>& tmpl);

/// The same matched filter against data already transformed once:
/// `data_half` is rfft(data, n) for a power of two n >= data_size +
/// tmpl.size() - 1, and `data_size` is data.size(). Scanning many
/// templates against one spectrum saves a forward transform per template;
/// at n = next_pow2(data.size() + tmpl.size() - 1) the result is bit-equal
/// to matched_filter(data, tmpl). Throws std::invalid_argument when n is
/// too short for linear correlation.
MatchResult matched_filter(const std::vector<Complex>& data_half,
                           std::size_t data_size,
                           const std::vector<double>& tmpl);

}  // namespace cg::dsp
