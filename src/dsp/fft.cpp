#include "dsp/fft.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

namespace cg::dsp {
namespace {

// Complex points per cache block: the stages whose butterflies span at most
// this many points run block by block, each block staying in L2 while all
// of them are applied. 2^13 points is 128 KiB of data; at 2^20 points,
// 2^11 to 2^14 time alike and 2^15 or more is a quarter slower.
constexpr std::size_t kBlock = std::size_t{1} << 13;

// The bit-reversal permutation moves 2^kTileBits x 2^kTileBits tiles of
// points. The rows of a tile lie a power of two apart and so share one L1
// set; a tile pair must fit in its ways, which 8 x 8 does and 16 x 16 does
// not (measured at 2^20 points: 2.0 ms at 8 x 8, 4.4 ms at 16 x 16, 5.0 ms
// untiled).
constexpr int kTileBits = 3;

/// Everything a transform of `n` complex points needs that depends on n
/// alone. Immutable once built.
struct Plan {
  explicit Plan(std::size_t n);

  std::size_t n;
  /// rev[i]: i with its log2(n) low bits reversed.
  std::vector<std::uint32_t> rev;
  /// Stage twiddles, interleaved re/im. The stage of half-width h holds
  /// exp(-i*pi*k/h) for k < h at doubles [2(h-1), 2(2h-1)).
  std::vector<double> twiddle;
  /// exp(-i*pi*k/n) for k <= n/2, interleaved: the twiddles that turn this
  /// transform into a real one of 2n points.
  std::vector<double> split;
};

Plan::Plan(std::size_t size)
    : n(size), rev(size), twiddle(2 * (size - 1)), split(2 * (size / 2 + 1)) {
  const int bits = std::countr_zero(n);
  for (std::size_t i = 1; i < n; ++i) {
    rev[i] = static_cast<std::uint32_t>((rev[i >> 1] >> 1) |
                                        ((i & 1u) << (bits - 1)));
  }
  for (std::size_t h = 1; h < n; h <<= 1) {
    double* w = twiddle.data() + 2 * (h - 1);
    for (std::size_t k = 0; k < h; ++k) {
      const Complex t = std::polar(1.0, -M_PI * static_cast<double>(k) /
                                            static_cast<double>(h));
      w[2 * k] = t.real();
      w[2 * k + 1] = t.imag();
    }
  }
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const Complex t = std::polar(1.0, -M_PI * static_cast<double>(k) /
                                          static_cast<double>(n));
    split[2 * k] = t.real();
    split[2 * k + 1] = t.imag();
  }
}

/// The cached plan for n complex points (n a power of two), built on first
/// use. Plans are never replaced or freed, so the reference stays valid.
const Plan& plan_for(std::size_t n) {
  static std::mutex mu;
  static std::array<std::unique_ptr<const Plan>, 33> plans;  // by log2(n)
  const auto log2n = static_cast<std::size_t>(std::countr_zero(n));
  if (log2n >= plans.size()) {
    throw std::length_error("fft: size too large, got " + std::to_string(n));
  }
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = plans[log2n];
  if (!slot) slot = std::make_unique<const Plan>(n);
  return *slot;
}

/// One radix-2 stage of half-width h (h >= 2) over `count` interleaved
/// complex points at d.
template <bool kInverse>
void stage(double* d, std::size_t count, std::size_t h, const double* w) {
  for (std::size_t i = 0; i < count; i += 2 * h) {
    double* a = d + 2 * i;
    double* b = a + 2 * h;
    for (std::size_t k = 0; k < h; ++k) {
      const double wr = w[2 * k];
      const double wi = kInverse ? -w[2 * k + 1] : w[2 * k + 1];
      const double br = b[2 * k], bi = b[2 * k + 1];
      const double tr = br * wr - bi * wi;
      const double ti = br * wi + bi * wr;
      const double ar = a[2 * k], ai = a[2 * k + 1];
      a[2 * k] = ar + tr;
      a[2 * k + 1] = ai + ti;
      b[2 * k] = ar - tr;
      b[2 * k + 1] = ai - ti;
    }
  }
}

/// The first stage (h == 1): every twiddle is 1.
void first_stage(double* d, std::size_t count) {
  for (std::size_t i = 0; i < 2 * count; i += 4) {
    const double ar = d[i], ai = d[i + 1], br = d[i + 2], bi = d[i + 3];
    d[i] = ar + br;
    d[i + 1] = ai + bi;
    d[i + 2] = ar - br;
    d[i + 3] = ai - bi;
  }
}

/// Bit-reversal permutation of p.n interleaved complex points at d. With
/// n = 2^L and L >= 2T, point (a << (L-T)) | (m << T) | c moves to
/// (rev(c) << (L-T)) | (rev(m) << T) | rev(a): the 2^T x 2^T tile of middle
/// bits m trades places with the tile of rev(m), so the swaps go tile pair
/// by tile pair and each pair stays in L1 while it is done.
void bit_reverse(const Plan& p, double* d) {
  const std::size_t n = p.n;
  const auto swap_points = [d](std::size_t i, std::size_t j) {
    std::swap(d[2 * i], d[2 * j]);
    std::swap(d[2 * i + 1], d[2 * j + 1]);
  };
  const int bits = std::countr_zero(n);
  if (bits < 2 * kTileBits) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i < p.rev[i]) swap_points(i, p.rev[i]);
    }
    return;
  }
  const std::size_t side = std::size_t{1} << kTileBits;
  const std::size_t tiles = n >> (2 * kTileBits);
  for (std::size_t m = 0; m < tiles; ++m) {
    const std::size_t mrev = p.rev[m << kTileBits] >> kTileBits;
    if (mrev < m) continue;  // swapped when mrev came round
    for (std::size_t a = 0; a < side; ++a) {
      const std::size_t row = (a << (bits - kTileBits)) | (m << kTileBits);
      for (std::size_t c = 0; c < side; ++c) {
        const std::size_t i = row | c;
        const std::size_t j = p.rev[i];
        if (m < mrev || i < j) swap_points(i, j);
      }
    }
  }
}

/// In-place unnormalised transform of p.n interleaved complex points at d.
template <bool kInverse>
void transform(const Plan& p, double* d) {
  const std::size_t n = p.n;
  bit_reverse(p, d);
  if (n == 1) return;

  const std::size_t block = std::min(n, kBlock);
  for (std::size_t base = 0; base < n; base += block) {
    double* blk = d + 2 * base;
    first_stage(blk, block);
    for (std::size_t h = 2; h < block; h <<= 1) {
      stage<kInverse>(blk, block, h, p.twiddle.data() + 2 * (h - 1));
    }
  }
  for (std::size_t h = block; h < n; h <<= 1) {
    stage<kInverse>(d, n, h, p.twiddle.data() + 2 * (h - 1));
  }
}

void check_pow2(std::size_t n, const char* what) {
  if (!is_pow2(n)) {
    throw std::invalid_argument(std::string(what) +
                                " size must be a power of two, got " +
                                std::to_string(n));
  }
}

double* as_doubles(std::vector<Complex>& v) {
  // std::complex<double> is laid out as double[2] ([complex.numbers]).
  return reinterpret_cast<double*>(v.data());
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void fft(std::vector<Complex>& data) {
  check_pow2(data.size(), "fft");
  transform<false>(plan_for(data.size()), as_doubles(data));
}

void ifft(std::vector<Complex>& data) {
  check_pow2(data.size(), "fft");
  transform<true>(plan_for(data.size()), as_doubles(data));
  const double inv = 1.0 / static_cast<double>(data.size());
  for (auto& x : data) x *= inv;
}

std::vector<Complex> rfft(const std::vector<double>& signal) {
  return rfft(signal, next_pow2(signal.size()));
}

std::vector<Complex> rfft(const std::vector<double>& signal, std::size_t n) {
  check_pow2(n, "rfft");
  if (signal.size() > n) {
    throw std::invalid_argument("rfft: signal longer than the padded size");
  }
  const std::size_t m = n / 2;
  std::vector<Complex> out(m + 1);
  double* d = as_doubles(out);
  std::copy(signal.begin(), signal.end(), d);
  if (n == 1) return out;

  // The even samples are the real parts and the odd ones the imaginary
  // parts of m = n/2 points. Transform those, then split the result:
  // X[k] = E[k] + W^k O[k] and X[m-k] = conj(E[k] - W^k O[k]), where E and
  // O are the spectra of the even and odd samples and W = exp(-2 pi i/n).
  const Plan& p = plan_for(m);
  transform<false>(p, d);

  const double z0r = d[0], z0i = d[1];
  d[0] = z0r + z0i;
  d[1] = 0.0;
  d[2 * m] = z0r - z0i;
  d[2 * m + 1] = 0.0;
  for (std::size_t k = 1; k <= m / 2; ++k) {
    const std::size_t j = m - k;
    const double ar = d[2 * k], ai = d[2 * k + 1];
    const double br = d[2 * j], bi = d[2 * j + 1];
    const double er = 0.5 * (ar + br), ei = 0.5 * (ai - bi);
    const double xr = 0.5 * (ai + bi), xi = 0.5 * (br - ar);
    const double wr = p.split[2 * k], wi = p.split[2 * k + 1];
    const double orr = wr * xr - wi * xi, oi = wr * xi + wi * xr;
    d[2 * k] = er + orr;
    d[2 * k + 1] = ei + oi;
    d[2 * j] = er - orr;
    d[2 * j + 1] = oi - ei;
  }
  return out;
}

std::vector<double> irfft(const std::vector<Complex>& half, std::size_t n) {
  if (!is_pow2(n) || half.size() != n / 2 + 1) {
    throw std::invalid_argument("irfft: half spectrum size mismatch");
  }
  if (n == 1) return {half[0].real()};

  // Undo rfft's split straight into `out`, read as m = n/2 complex points:
  // Z[k] = E[k] + i O[k] with E[k] = (X[k] + conj X[m-k])/2 and O[k] =
  // (X[k] - conj X[m-k]) conj(W^k)/2. One inverse transform of Z leaves
  // the even samples in its real parts and the odd ones in its imaginary
  // parts, i.e. the signal in order. The 1/n normalisation rides in the
  // split.
  const std::size_t m = n / 2;
  const auto* x = reinterpret_cast<const double*>(half.data());
  std::vector<double> out(n);
  double* d = out.data();
  const Plan& p = plan_for(m);
  const double s = 1.0 / static_cast<double>(n);

  d[0] = s * (x[0] + x[2 * m]);
  d[1] = s * (x[0] - x[2 * m]);
  for (std::size_t k = 1; k <= m / 2; ++k) {
    const std::size_t j = m - k;
    const double ar = x[2 * k], ai = x[2 * k + 1];
    const double br = x[2 * j], bi = x[2 * j + 1];
    const double er = s * (ar + br), ei = s * (ai - bi);
    const double cr = s * (ar - br), ci = s * (ai + bi);
    // F = i * conj(W^k) * c
    const double wr = p.split[2 * k], wi = -p.split[2 * k + 1];
    const double tr = wr * cr - wi * ci, ti = wr * ci + wi * cr;
    const double fr = -ti, fi = tr;
    d[2 * k] = er + fr;
    d[2 * k + 1] = ei + fi;
    d[2 * j] = er - fr;
    d[2 * j + 1] = fi - ei;
  }
  transform<true>(p, d);
  return out;
}

}  // namespace cg::dsp
