// ConGrid -- inspiral template bank.
//
// "it performs fast correlation on the data set with each template in a
// library of between 5,000 and 10,000 templates" (paper 3.6.2). The bank
// spans a chirp-mass range with geometric spacing -- adjacent templates
// then overlap roughly evenly in match, the standard bank-construction
// heuristic.
#pragma once

#include <cstddef>
#include <vector>

#include "apps/gw/chirp.hpp"

namespace cg::gw {

struct BankSpec {
  std::size_t n_templates = 5000;
  double min_chirp_mass_msun = 0.8;
  double max_chirp_mass_msun = 3.0;
  double f_low_hz = 50.0;
  double f_high_hz = 900.0;
  double sample_rate_hz = 2000.0;
};

class TemplateBank {
 public:
  /// Generate the full bank (eager; can be large).
  explicit TemplateBank(const BankSpec& spec);

  std::size_t size() const { return templates_.size(); }
  const std::vector<double>& waveform(std::size_t i) const {
    return templates_.at(i);
  }
  const ChirpParams& params(std::size_t i) const { return params_.at(i); }
  const BankSpec& spec() const { return spec_; }

  /// Chirp-mass for template index i under the geometric spacing (usable
  /// without generating waveforms).
  static double chirp_mass_for(const BankSpec& spec, std::size_t i);

  /// Total bytes of waveform storage (capacity planning).
  std::size_t total_bytes() const;

  /// Samples in the longest waveform of the bank.
  std::size_t longest() const;

 private:
  BankSpec spec_;
  std::vector<std::vector<double>> templates_;
  std::vector<ChirpParams> params_;
};

}  // namespace cg::gw
