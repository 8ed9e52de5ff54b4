#include "apps/gw/template_bank.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cg::gw {

double TemplateBank::chirp_mass_for(const BankSpec& spec, std::size_t i) {
  if (spec.n_templates == 0) {
    throw std::invalid_argument("empty bank spec");
  }
  if (spec.n_templates == 1) return spec.min_chirp_mass_msun;
  const double ratio = spec.max_chirp_mass_msun / spec.min_chirp_mass_msun;
  const double t = static_cast<double>(i) /
                   static_cast<double>(spec.n_templates - 1);
  return spec.min_chirp_mass_msun * std::pow(ratio, t);
}

TemplateBank::TemplateBank(const BankSpec& spec) : spec_(spec) {
  templates_.reserve(spec.n_templates);
  params_.reserve(spec.n_templates);
  for (std::size_t i = 0; i < spec.n_templates; ++i) {
    ChirpParams p;
    p.chirp_mass_msun = chirp_mass_for(spec, i);
    p.f_low_hz = spec.f_low_hz;
    p.f_high_hz = spec.f_high_hz;
    p.sample_rate_hz = spec.sample_rate_hz;
    params_.push_back(p);
    templates_.push_back(make_chirp(p));
  }
}

std::size_t TemplateBank::total_bytes() const {
  std::size_t n = 0;
  for (const auto& t : templates_) n += t.size() * sizeof(double);
  return n;
}

std::size_t TemplateBank::longest() const {
  std::size_t n = 0;
  for (const auto& t : templates_) n = std::max(n, t.size());
  return n;
}

}  // namespace cg::gw
