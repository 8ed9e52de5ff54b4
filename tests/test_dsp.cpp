// Tests for the cg_dsp substrate: FFT correctness against analytic answers
// and the direct O(N^2) transform, correlation equivalence, spectra,
// windows, statistics and the deterministic RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>

#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/stats.hpp"
#include "dsp/window.hpp"

namespace cg::dsp {
namespace {

std::vector<double> sine(std::size_t n, double freq, double rate,
                         double amp = 1.0) {
  std::vector<double> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = amp * std::sin(2.0 * M_PI * freq * static_cast<double>(i) / rate);
  }
  return s;
}

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

TEST(Fft, NonPowerOfTwoThrows) {
  std::vector<Complex> a(12);
  EXPECT_THROW(fft(a), std::invalid_argument);
}

TEST(Fft, DeltaFunctionIsFlat) {
  std::vector<Complex> a(16, Complex(0, 0));
  a[0] = Complex(1, 0);
  fft(a);
  for (const auto& x : a) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 256;
  std::vector<Complex> a(n);
  const std::size_t k = 7;
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = std::polar(1.0, 2.0 * M_PI * static_cast<double>(k * i) /
                               static_cast<double>(n));
  }
  fft(a);
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = (i == k) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(a[i]), expected, 1e-9) << "bin " << i;
  }
}

TEST(Fft, InverseRecoversInput) {
  Rng rng(7);
  std::vector<Complex> a(512);
  for (auto& x : a) x = Complex(rng.gaussian(), rng.gaussian());
  auto orig = a;
  fft(a);
  ifft(a);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(a[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, MatchesDirectDft) {
  Rng rng(99);
  const std::size_t n = 64;
  std::vector<Complex> a(n);
  for (auto& x : a) x = Complex(rng.gaussian(), rng.gaussian());
  auto fast = a;
  fft(fast);
  for (std::size_t k = 0; k < n; ++k) {
    Complex sum(0, 0);
    for (std::size_t t = 0; t < n; ++t) {
      sum += a[t] * std::polar(1.0, -2.0 * M_PI * static_cast<double>(k * t) /
                                        static_cast<double>(n));
    }
    EXPECT_NEAR(std::abs(fast[k] - sum), 0.0, 1e-8) << "bin " << k;
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(3);
  std::vector<Complex> a(1024);
  for (auto& x : a) x = Complex(rng.gaussian(), 0.0);
  double time_energy = 0.0;
  for (const auto& x : a) time_energy += std::norm(x);
  fft(a);
  double freq_energy = 0.0;
  for (const auto& x : a) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / static_cast<double>(a.size()), time_energy, 1e-6);
}

TEST(Fft, RoundTripAtTwoToTheTwentyIsExact) {
  // Exact per-stage twiddles: a twiddle recurrence drifts to ~1e-10 here.
  Rng rng(17);
  std::vector<Complex> a(std::size_t{1} << 20);
  for (auto& x : a) x = Complex(rng.gaussian(), rng.gaussian());
  const auto orig = a;
  fft(a);
  ifft(a);
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - orig[i]));
  }
  EXPECT_LT(worst, 1e-13);
}

TEST(Fft, ConcurrentFirstUseOfOnePlanAgrees) {
  // 2^18 points is a size no other test in this binary transforms, so the
  // four threads race to build its plan.
  Rng rng(23);
  std::vector<Complex> input(std::size_t{1} << 18);
  for (auto& x : input) x = Complex(rng.gaussian(), rng.gaussian());
  std::vector<std::vector<Complex>> out(4, input);
  {
    std::vector<std::jthread> threads;
    for (auto& o : out) threads.emplace_back([&o] { fft(o); });
  }
  auto serial = input;
  fft(serial);
  for (const auto& o : out) EXPECT_TRUE(o == serial);
}

TEST(Rfft, MatchesComplexFftAtEveryPowerOfTwo) {
  // 1 .. 2^16 samples: half-length transforms of 1 .. 2^15 points, on both
  // sides of the 2^13-point cache block.
  Rng rng(29);
  for (std::size_t n = 1; n <= (std::size_t{1} << 16); n <<= 1) {
    SCOPED_TRACE(n);
    std::vector<double> s(n);
    for (auto& x : s) x = rng.gaussian();
    std::vector<Complex> full(s.begin(), s.end());
    fft(full);
    const auto half = rfft(s);
    ASSERT_EQ(half.size(), n / 2 + 1);
    double worst = 0.0;
    for (std::size_t k = 0; k < half.size(); ++k) {
      worst = std::max(worst, std::abs(half[k] - full[k]));
    }
    // Rounding error grows like sqrt(n) log n; measured 2.3e-16 of that.
    EXPECT_LT(worst, 1e-15 * std::sqrt(static_cast<double>(n)) *
                         std::log2(static_cast<double>(2 * n)));
    const auto back = irfft(half, n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(back[i], s[i], 1e-13);
  }
}

TEST(Rfft, PadsToTheRequestedLength) {
  const std::vector<double> s = {1.0, -2.0, 3.0};
  EXPECT_EQ(rfft(s, 16), rfft({1.0, -2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                               0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0}));
  EXPECT_THROW(rfft(s, 2), std::invalid_argument);   // shorter than s
  EXPECT_THROW(rfft(s, 12), std::invalid_argument);  // not a power of two
}

TEST(Rfft, HermitianHalfSpectrumRoundTrip) {
  Rng rng(11);
  std::vector<double> s(300);
  for (auto& x : s) x = rng.gaussian();
  auto half = rfft(s);
  const std::size_t padded = next_pow2(s.size());
  EXPECT_EQ(half.size(), padded / 2 + 1);
  auto back = irfft(half, padded);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(back[i], s[i], 1e-10);
  }
  for (std::size_t i = s.size(); i < padded; ++i) {
    EXPECT_NEAR(back[i], 0.0, 1e-10);  // the zero padding
  }
}

TEST(Rfft, IrfftSizeMismatchThrows) {
  std::vector<Complex> half(9);
  EXPECT_THROW(irfft(half, 32), std::invalid_argument);
}

class WindowCase : public ::testing::TestWithParam<WindowKind> {};

TEST_P(WindowCase, CoefficientsBoundedAndSymmetric) {
  auto w = make_window(GetParam(), 129);
  for (double c : w) {
    EXPECT_GE(c, -1e-12);
    EXPECT_LE(c, 1.0 + 1e-12);
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12) << i;
  }
}

TEST_P(WindowCase, NameRoundTrips) {
  EXPECT_EQ(window_from_name(window_name(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WindowCase,
                         ::testing::Values(WindowKind::kRectangular,
                                           WindowKind::kHann,
                                           WindowKind::kHamming,
                                           WindowKind::kBlackman));

TEST(Window, UnknownNameThrows) {
  EXPECT_THROW(window_from_name("kaiser"), std::invalid_argument);
}

TEST(Window, HannEndsAtZero) {
  auto w = make_window(WindowKind::kHann, 64);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
}

TEST(Spectrum, PeakAtToneFrequency) {
  const double rate = 1024.0;
  auto s = sine(1024, 50.0, rate);
  auto spec = power_spectrum(s, rate, WindowKind::kHann);
  EXPECT_NEAR(peak_frequency(spec), 50.0, spec.bin_width);
}

TEST(Spectrum, WindowNormalisationKeepsPeakComparable) {
  const double rate = 1024.0;
  auto s = sine(1024, 100.0, rate);
  auto rect = power_spectrum(s, rate, WindowKind::kRectangular);
  auto hann = power_spectrum(s, rate, WindowKind::kHann);
  const double pr = rect.power[peak_bin(rect)];
  const double ph = hann.power[peak_bin(hann)];
  // Same tone, same normalisation convention: peaks within a factor ~2
  // (scalloping/leakage differences only).
  EXPECT_GT(ph / pr, 0.3);
  EXPECT_LT(ph / pr, 3.0);
}

TEST(Spectrum, PeakToMedianGrowsWithSnr) {
  Rng rng(5);
  const double rate = 2048.0;
  auto clean = sine(2048, 64.0, rate, 0.2);
  std::vector<double> noisy = clean;
  for (auto& x : noisy) x += rng.gaussian(0.0, 1.0);
  auto sp_noisy = power_spectrum(noisy, rate);
  auto sp_clean = power_spectrum(clean, rate);
  EXPECT_GT(peak_to_median_ratio(sp_clean), peak_to_median_ratio(sp_noisy));
}

TEST(Spectrum, EmptySignalThrows) {
  EXPECT_THROW(power_spectrum({}, 1.0), std::invalid_argument);
}

TEST(Correlate, FastMatchesDirect) {
  Rng rng(21);
  // The second case has a template longer than the data, and neither
  // length is a power of two.
  for (const auto& [data_len, tmpl_len] :
       {std::pair<std::size_t, std::size_t>{400, 64}, {300, 437}}) {
    SCOPED_TRACE(tmpl_len);
    std::vector<double> data(data_len), tmpl(tmpl_len);
    for (auto& x : data) x = rng.gaussian();
    for (auto& x : tmpl) x = rng.gaussian();
    auto fast = fast_correlate(data, tmpl);
    auto direct = direct_correlate(data, tmpl);
    ASSERT_EQ(fast.size(), direct.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast[i], direct[i], 1e-8) << "lag " << i;
    }
  }
}

TEST(Correlate, PrecomputedSpectrumMatchesBitForBit) {
  Rng rng(37);
  std::vector<double> data(3000), tmpl(700);
  for (auto& x : data) x = rng.gaussian();
  for (auto& x : tmpl) x = rng.gaussian();
  const std::size_t n = next_pow2(data.size() + tmpl.size() - 1);
  const auto half = rfft(data, n);
  const auto a = matched_filter(half, data.size(), tmpl);
  const auto b = matched_filter(data, tmpl);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.peak),
            std::bit_cast<std::uint64_t>(b.peak));
  EXPECT_EQ(a.offset, b.offset);

  // A longer spectrum still correlates linearly; a shorter one cannot.
  const auto wide = matched_filter(rfft(data, 2 * n), data.size(), tmpl);
  EXPECT_NEAR(wide.peak, b.peak, 1e-12 * b.peak);
  EXPECT_EQ(wide.offset, b.offset);
  EXPECT_THROW(matched_filter(rfft(data, 2048), data.size(), tmpl),
               std::invalid_argument);
}

TEST(Correlate, MatchedFilterFindsEmbeddedTemplate) {
  Rng rng(42);
  std::vector<double> tmpl(128);
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    tmpl[i] = std::sin(0.3 * static_cast<double>(i) +
                       0.002 * static_cast<double>(i * i));
  }
  std::vector<double> data(4096);
  for (auto& x : data) x = rng.gaussian(0.0, 0.3);
  const std::size_t where = 1234;
  for (std::size_t i = 0; i < tmpl.size(); ++i) data[where + i] += tmpl[i];

  auto r = matched_filter(data, tmpl);
  EXPECT_EQ(r.offset, where);
}

TEST(Correlate, ZeroEnergyTemplateThrows) {
  std::vector<double> data(64, 1.0), tmpl(8, 0.0);
  EXPECT_THROW(matched_filter(data, tmpl), std::invalid_argument);
}

TEST(Correlate, EmptyInputThrows) {
  EXPECT_THROW(fast_correlate({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(fast_correlate({1.0}, {}), std::invalid_argument);
}

TEST(Stats, BasicAggregates) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_DOUBLE_EQ(variance(v), 2.0);
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(rms(v), std::sqrt(11.0));
  EXPECT_DOUBLE_EQ(max_abs({-7, 3}), 7.0);
  EXPECT_EQ(argmax(v), 4u);
}

TEST(Stats, Percentile) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
}

TEST(Stats, EmptyThrows) {
  EXPECT_THROW(mean({}), std::invalid_argument);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(RunningStats, MatchesBatchComputation) {
  Rng rng(77);
  std::vector<double> v(10000);
  RunningStats rs;
  for (auto& x : v) {
    x = rng.gaussian(5.0, 2.0);
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), mean(v), 1e-9);
  EXPECT_NEAR(rs.variance(), variance(v), 1e-6);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(13);
  RunningStats all, a, b;
  for (int i = 0; i < 5000; ++i) {
    double x = rng.exponential(3.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // empty rhs: no change
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // empty lhs: adopt rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(31);
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(rng.gaussian());
  EXPECT_NEAR(rs.mean(), 0.0, 0.02);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.02);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(55);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(1000);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent() == child());
  EXPECT_LT(same, 2);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(404);
  RunningStats rs;
  for (int i = 0; i < 100000; ++i) rs.add(rng.exponential(4.0));
  EXPECT_NEAR(rs.mean(), 4.0, 0.1);
  EXPECT_GE(rs.min(), 0.0);
}

}  // namespace
}  // namespace cg::dsp
