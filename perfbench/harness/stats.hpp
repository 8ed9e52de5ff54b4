// perfbench -- order statistics used by every workload.
//
// Timings are reported as a median plus the highest percentile that has at
// least ten samples beyond it; run-to-run spread is the distance between the
// first and third quartiles, computed exactly as Python's
// statistics.quantiles(values, n=4) does, so the harness and any script
// reading its output agree on every figure.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

/// Median (mean of the middle two for an even count); 0 for no samples.
double median(std::vector<double> v);

/// Linear-interpolation percentile (p in [0, 100]) over the samples, the
/// "inclusive" definition; 0 for no samples.
double percentile(std::vector<double> v, double p);

/// Q1, Q2, Q3 by Python's default "exclusive" method. Needs >= 2 samples;
/// fewer give the single value (or 0) three times.
std::array<double, 3> quartiles(std::vector<double> v);

/// (Q3 - Q1) / median, the spread the benchmark is judged by.
double iqr_share(const std::vector<double>& v);

/// True when at least `min_beyond` of `n` samples lie beyond percentile p.
bool percentile_supported(std::size_t n, double p, std::size_t min_beyond = 10);

/// The highest of `candidates` (ascending or not) that has >= 10 samples
/// beyond it out of `n`; nullopt when none does.
std::optional<double> highest_supported_percentile(
    std::size_t n, std::span<const double> candidates);

double sum(const std::vector<double>& v);

}  // namespace perfbench
