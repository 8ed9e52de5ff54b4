// Tests for the gravitational-wave workload: chirp physics sanity, the
// template bank, the matched-filter search (detection + rejection), the
// paper's Case 2 arithmetic through the cost model, and the Triana units.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "apps/gw/units.hpp"
#include "core/engine/runtime.hpp"
#include "core/unit/builtin.hpp"

namespace cg::gw {
namespace {

ChirpParams small_chirp(double mc = 1.2) {
  ChirpParams p;
  p.chirp_mass_msun = mc;
  p.f_low_hz = 100.0;  // short waveform: fast tests
  p.f_high_hz = 900.0;
  p.sample_rate_hz = 2000.0;
  return p;
}

TEST(Chirp, TimeToCoalescenceDecreasesWithMass) {
  ChirpParams light = small_chirp(0.8);
  ChirpParams heavy = small_chirp(3.0);
  EXPECT_GT(time_to_coalescence_s(light), time_to_coalescence_s(heavy));
  EXPECT_GT(time_to_coalescence_s(light), 0.0);
}

TEST(Chirp, TimeToCoalescenceDropsWithHigherFlow) {
  ChirpParams lo = small_chirp();
  lo.f_low_hz = 50.0;
  ChirpParams hi = small_chirp();
  hi.f_low_hz = 200.0;
  EXPECT_GT(time_to_coalescence_s(lo), time_to_coalescence_s(hi));
}

TEST(Chirp, WaveformSweepsUpInFrequency) {
  const auto h = make_chirp(small_chirp());
  ASSERT_GT(h.size(), 100u);
  // Count zero crossings in the first and last quarters: the chirp's
  // frequency (hence crossing density) must increase.
  auto crossings = [&](std::size_t a, std::size_t b) {
    int c = 0;
    for (std::size_t i = a + 1; i < b; ++i) {
      if ((h[i - 1] < 0) != (h[i] < 0)) ++c;
    }
    return c;
  };
  const std::size_t q = h.size() / 4;
  EXPECT_GT(crossings(3 * q, 4 * q - 1), crossings(0, q));
}

TEST(Chirp, UnitPeakNormalisation) {
  const auto h = make_chirp(small_chirp());
  double peak = 0;
  for (double v : h) peak = std::max(peak, std::abs(v));
  EXPECT_NEAR(peak, 1.0, 1e-12);
}

TEST(Chirp, InvalidBandsRejected) {
  ChirpParams p = small_chirp();
  p.f_high_hz = p.f_low_hz;
  EXPECT_THROW(make_chirp(p), std::invalid_argument);
  p = small_chirp();
  p.f_high_hz = 2000.0;  // above Nyquist
  EXPECT_THROW(make_chirp(p), std::invalid_argument);
}

TEST(Chirp, DetectorSpecMatchesPaperNumbers) {
  DetectorSpec spec;  // defaults are the paper's
  EXPECT_EQ(spec.samples_per_chunk(), 1'800'000u);
  EXPECT_EQ(spec.chunk_bytes(), 7'200'000u);  // "7.2MB of data"
}

TEST(Bank, GeometricMassSpacing) {
  BankSpec spec;
  spec.n_templates = 11;
  EXPECT_DOUBLE_EQ(TemplateBank::chirp_mass_for(spec, 0),
                   spec.min_chirp_mass_msun);
  EXPECT_NEAR(TemplateBank::chirp_mass_for(spec, 10),
              spec.max_chirp_mass_msun, 1e-12);
  // Geometric: ratios between consecutive masses are equal.
  const double r1 = TemplateBank::chirp_mass_for(spec, 1) /
                    TemplateBank::chirp_mass_for(spec, 0);
  const double r2 = TemplateBank::chirp_mass_for(spec, 6) /
                    TemplateBank::chirp_mass_for(spec, 5);
  EXPECT_NEAR(r1, r2, 1e-12);
}

TEST(Bank, BuildsRequestedSize) {
  BankSpec spec;
  spec.n_templates = 8;
  spec.f_low_hz = 150.0;  // short templates
  TemplateBank bank(spec);
  EXPECT_EQ(bank.size(), 8u);
  EXPECT_GT(bank.total_bytes(), 0u);
  // Heavier templates are shorter (coalesce sooner from the same f_low).
  EXPECT_GT(bank.waveform(0).size(), bank.waveform(7).size());
}

TEST(Search, FindsInjectedChirp) {
  BankSpec spec;
  spec.n_templates = 16;
  spec.f_low_hz = 150.0;
  TemplateBank bank(spec);

  DetectorSpec det;
  dsp::Rng rng(11);
  const std::size_t inject_tmpl = 9;
  const std::size_t inject_at = 5000;
  auto data = make_strain_chunk(det, rng, &bank.params(inject_tmpl),
                                inject_at, 4.0, 1 << 15);

  const auto r = scan_chunk(data, bank, 0, bank.size());
  EXPECT_EQ(r.templates_scanned, 16u);
  EXPECT_TRUE(detected(r, 8.0));
  // The best template is at (or adjacent to) the injected one.
  EXPECT_NEAR(static_cast<double>(r.best_template),
              static_cast<double>(inject_tmpl), 1.0);
  EXPECT_NEAR(static_cast<double>(r.best_offset),
              static_cast<double>(inject_at), 16.0);
}

TEST(Search, NoiseOnlyStaysBelowThreshold) {
  BankSpec spec;
  spec.n_templates = 8;
  spec.f_low_hz = 150.0;
  TemplateBank bank(spec);
  DetectorSpec det;
  dsp::Rng rng(5);
  auto data = make_strain_chunk(det, rng, nullptr, 0, 0.0, 1 << 14);
  const auto r = scan_chunk(data, bank, 0, bank.size());
  EXPECT_FALSE(detected(r, 8.0));
  EXPECT_GT(r.best_snr, 0.0);
}

TEST(Search, SlicedScansCoverTheBank) {
  BankSpec spec;
  spec.n_templates = 12;
  spec.f_low_hz = 150.0;
  TemplateBank bank(spec);
  // Heavier templates are shorter, so the last slice's longest template
  // is shorter than the bank's. The second case sizes the chunk so that
  // slice alone would pad to 2^14 while the bank pads to 2^15.
  const std::size_t last_slice_longest = bank.waveform(8).size();
  ASSERT_LT(last_slice_longest, bank.longest());
  const std::size_t split_len = (1u << 14) - last_slice_longest + 1;
  ASSERT_GT(split_len + bank.longest() - 1, 1u << 14);

  struct Case {
    std::size_t samples;
    std::size_t inject;
  };
  for (const Case c : {Case{1u << 14, 7}, Case{split_len, 10}}) {
    SCOPED_TRACE(c.samples);
    DetectorSpec det;
    dsp::Rng rng(3);
    auto data = make_strain_chunk(det, rng, &bank.params(c.inject), 2000,
                                  4.0, c.samples);

    // Whole-bank scan equals, bit for bit, the max over three 4-template
    // slices.
    const auto whole = scan_chunk(data, bank, 0, 12);
    SearchResult best;
    for (std::size_t s = 0; s < 3; ++s) {
      const auto r = scan_chunk(data, bank, s * 4, 4);
      if (r.best_snr > best.best_snr) best = r;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(best.best_snr),
              std::bit_cast<std::uint64_t>(whole.best_snr));
    EXPECT_EQ(best.best_template, whole.best_template);
    EXPECT_EQ(best.best_offset, whole.best_offset);
  }
}

TEST(Search, BadRangeThrows) {
  BankSpec spec;
  spec.n_templates = 4;
  spec.f_low_hz = 200.0;
  TemplateBank bank(spec);
  std::vector<double> data(1024, 0.1);
  EXPECT_THROW(scan_chunk(data, bank, 10, 1), std::out_of_range);
}

TEST(CostModel, ReproducesPaperArithmetic) {
  CostModel cost;
  DetectorSpec det;
  // 7,500 templates, 900 s chunks, 2 GHz PC -> about 5 hours per chunk.
  const double secs =
      cost.chunk_seconds(7500, det.samples_per_chunk(), 2000.0);
  EXPECT_NEAR(secs / 3600.0, 5.0, 0.1);
  // "20 PC's would need to be employed full-time to keep up".
  const double pcs =
      cost.pcs_for_realtime(7500, det.chunk_seconds, det.samples_per_chunk(),
                            2000.0);
  EXPECT_NEAR(pcs, 20.0, 0.5);
  // Slower consumer boxes need proportionally more.
  EXPECT_NEAR(cost.pcs_for_realtime(7500, det.chunk_seconds,
                                    det.samples_per_chunk(), 1000.0),
              2.0 * pcs, 1.0);
}

TEST(Units, StrainSourcePlusFilterPipelineDetects) {
  core::UnitRegistry reg = core::UnitRegistry::with_builtins();
  register_gw_units(reg);

  core::TaskGraph g("inspiral");
  core::ParamSet sp;
  sp.set_int("samples", 16384);
  sp.set_int("inject_every", 2);  // every second chunk carries a signal
  sp.set_double("inject_amp", 4.0);
  sp.set_double("chirp_mass", 1.5);
  sp.set_double("f_low", 150.0);
  g.add_task("Source", "StrainSource", sp);

  core::ParamSet fp;
  fp.set_int("n_templates", 12);
  fp.set_double("f_low", 150.0);
  fp.set_double("min_mass", 0.8);
  fp.set_double("max_mass", 3.0);
  fp.set_double("threshold", 8.0);
  g.add_task("Filter", "InspiralFilter", fp);
  g.add_task("Snr", "StatSink");
  g.add_task("Hits", "StatSink");
  g.connect("Source", 0, "Filter", 0);
  g.connect("Filter", 0, "Snr", 0);
  g.connect("Filter", 1, "Hits", 0);

  core::GraphRuntime rt(g, reg, core::RuntimeOptions{.rng_seed = 2});
  rt.run(6);

  auto* hits = rt.unit_as<core::StatSinkUnit>("Hits");
  ASSERT_EQ(hits->stats().count(), 6u);
  // Injections on iterations 2, 4, 6 -> 3 detections of 6 chunks.
  EXPECT_DOUBLE_EQ(hits->stats().mean() * 6.0, 3.0);
}

TEST(Units, FilterRejectsWrongInput) {
  core::UnitRegistry reg = core::UnitRegistry::with_builtins();
  register_gw_units(reg);
  auto unit = reg.create("InspiralFilter");
  core::ParamSet p;
  p.set_int("n_templates", 2);
  p.set_double("f_low", 300.0);
  unit->configure(p);
  dsp::Rng rng(1);
  core::ProcessContext ctx({core::DataItem(1.0)}, 1, &rng, nullptr);
  EXPECT_THROW(unit->process(ctx), std::invalid_argument);
}

}  // namespace
}  // namespace cg::gw
