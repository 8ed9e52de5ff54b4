#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cg::dsp {
namespace {

/// Linear correlation of `tmpl` against the data whose rfft at n =
/// 2 * (data_half.size() - 1) is `data_half`: the correlation theorem,
/// corr = irfft(X * conj(T)), keeping the first data_size lags.
std::vector<double> correlate_half(const std::vector<Complex>& data_half,
                                   std::size_t data_size,
                                   const std::vector<double>& tmpl) {
  if (data_size == 0 || tmpl.empty()) {
    throw std::invalid_argument("correlate: empty input");
  }
  const std::size_t n =
      data_half.size() < 2 ? 0 : 2 * (data_half.size() - 1);
  if (!is_pow2(n) || data_size + tmpl.size() - 1 > n) {
    throw std::invalid_argument(
        "correlate: data spectrum too short for linear correlation");
  }
  auto spec = rfft(tmpl, n);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const double xr = data_half[i].real(), xi = data_half[i].imag();
    const double tr = spec[i].real(), ti = spec[i].imag();
    spec[i] = Complex(xr * tr + xi * ti, xi * tr - xr * ti);
  }
  auto corr = irfft(spec, n);
  corr.resize(data_size);
  return corr;
}

/// Padded length of a linear correlation of `tmpl` against `data`; at
/// least 2 so the half spectrum has a Nyquist bin.
std::size_t padded_length(const std::vector<double>& data,
                          const std::vector<double>& tmpl) {
  if (data.empty() || tmpl.empty()) {
    throw std::invalid_argument("fast_correlate: empty input");
  }
  return std::max<std::size_t>(2, next_pow2(data.size() + tmpl.size() - 1));
}

}  // namespace

std::vector<double> fast_correlate(const std::vector<double>& data,
                                   const std::vector<double>& tmpl) {
  return correlate_half(rfft(data, padded_length(data, tmpl)), data.size(),
                        tmpl);
}

std::vector<double> direct_correlate(const std::vector<double>& data,
                                     const std::vector<double>& tmpl) {
  if (data.empty() || tmpl.empty()) {
    throw std::invalid_argument("direct_correlate: empty input");
  }
  std::vector<double> out(data.size(), 0.0);
  for (std::size_t lag = 0; lag < data.size(); ++lag) {
    double acc = 0.0;
    const std::size_t m = std::min(tmpl.size(), data.size() - lag);
    for (std::size_t j = 0; j < m; ++j) acc += data[lag + j] * tmpl[j];
    out[lag] = acc;
  }
  return out;
}

MatchResult normalised_peak(const std::vector<double>& corr,
                            const std::vector<double>& tmpl) {
  double energy = 0.0;
  for (double t : tmpl) energy += t * t;
  if (energy <= 0.0) {
    throw std::invalid_argument("matched_filter: zero-energy template");
  }
  const double norm = 1.0 / std::sqrt(energy);
  MatchResult r;
  for (std::size_t i = 0; i < corr.size(); ++i) {
    const double v = std::abs(corr[i]) * norm;
    if (v > r.peak) {
      r.peak = v;
      r.offset = i;
    }
  }
  return r;
}

MatchResult matched_filter(const std::vector<double>& data,
                           const std::vector<double>& tmpl) {
  return matched_filter(rfft(data, padded_length(data, tmpl)), data.size(),
                        tmpl);
}

MatchResult matched_filter(const std::vector<Complex>& data_half,
                           std::size_t data_size,
                           const std::vector<double>& tmpl) {
  return normalised_peak(correlate_half(data_half, data_size, tmpl), tmpl);
}

}  // namespace cg::dsp
