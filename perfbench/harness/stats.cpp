#include "stats.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, j = i*m // 4
  // clamped to [1, n-1], delta = i*m - 4*j (after the clamp, so small
  // samples extrapolate), q_i = (x[j-1]*(4-delta) + x[j]*delta) / 4.
  const long n = static_cast<long>(v.size());
  const long m = n + 1;
  std::array<double, 3> q{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - 4 * j;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

double iqr_share(const std::vector<double>& v) {
  const auto q = quartiles(v);
  const double med = median(v);
  return med != 0.0 ? (q[2] - q[0]) / med : 0.0;
}

bool percentile_supported(std::size_t n, double p, std::size_t min_beyond) {
  // Samples strictly above the p-th percentile of n samples.
  const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
  return beyond + 1e-9 >= static_cast<double>(min_beyond);
}

std::optional<double> highest_supported_percentile(
    std::size_t n, std::span<const double> candidates) {
  std::optional<double> best;
  for (double p : candidates) {
    if (percentile_supported(n, p) && (!best || p > *best)) best = p;
  }
  return best;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

}  // namespace perfbench
