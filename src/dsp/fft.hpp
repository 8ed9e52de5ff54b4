// ConGrid -- fast Fourier transform.
//
// The inspiral search (paper section 3.6.2) performs "fast correlation on
// the data set with each template", i.e. FFT-based matched filtering, and
// the reference Triana network of Figure 1 takes a power spectrum. This is
// the shared FFT those paths use: an iterative radix-2 Cooley-Tukey
// transform driven by a plan per power-of-two size. A plan holds exact
// twiddles for every stage (each one from std::polar, so no error builds
// up across a stage), the bit-reversal table and the twiddles that split a
// half-length complex transform into a real one. Plans are built on first
// use of a size and cached for the life of the process; the cache is safe
// to use from several threads. The early stages run block by block in
// cache-sized pieces, so only the last few stream through memory. A real
// transform of n samples is one complex transform of n/2 points plus a
// split step.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace cg::dsp {

using Complex = std::complex<double>;

/// Smallest power of two >= n (n == 0 maps to 1).
std::size_t next_pow2(std::size_t n);

/// True when n is a power of two (and nonzero).
bool is_pow2(std::size_t n);

/// In-place forward FFT. `data.size()` must be a power of two; throws
/// std::invalid_argument otherwise. No normalisation is applied.
void fft(std::vector<Complex>& data);

/// In-place inverse FFT, normalised by 1/N so ifft(fft(x)) == x.
void ifft(std::vector<Complex>& data);

/// Forward FFT of a real signal. The input is zero-padded to the next power
/// of two; the returned spectrum has padded_size/2 + 1 bins (DC .. Nyquist).
std::vector<Complex> rfft(const std::vector<double>& signal);

/// Forward FFT of a real signal zero-padded to `n` samples, which must be a
/// power of two no smaller than signal.size(); throws std::invalid_argument
/// otherwise. Returns n/2 + 1 bins.
std::vector<Complex> rfft(const std::vector<double>& signal, std::size_t n);

/// Inverse of rfft for a half-spectrum of n/2+1 bins, returning n real
/// samples (n must be the power-of-two padded length).
std::vector<double> irfft(const std::vector<Complex>& half, std::size_t n);

}  // namespace cg::dsp
