#include <algorithm>
#include <cmath>

#include "core/unit/builtin.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"

namespace cg::core {
namespace {

/// Rough cost model charged against the sandbox: N log N flops at a
/// 100 Mflop/s 2003-era machine, expressed in seconds.
double fft_cost_seconds(std::size_t n) {
  const double nn = static_cast<double>(dsp::next_pow2(n));
  return 5.0 * nn * std::log2(std::max(2.0, nn)) / 100e6;
}

const SampleSet& require_samples(ProcessContext& ctx, std::size_t port,
                                 const char* unit) {
  if (ctx.input(port).type() != DataType::kSampleSet) {
    throw std::invalid_argument(std::string(unit) +
                                ": expected a sample-set on port " +
                                std::to_string(port));
  }
  return ctx.input(port).samples();
}

}  // namespace

// -------------------------------------------------------------- GaussianUnit

UnitInfo GaussianUnit::make_info() {
  UnitInfo i;
  i.type_name = "Gaussian";
  i.concurrency = Concurrency::kPure;
  i.package = "signalproc";
  i.description = "Adds Gaussian noise to a signal";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSampleSet)}};
  i.outputs = {PortSpec{"out", type_bit(DataType::kSampleSet)}};
  return i;
}

const UnitInfo& GaussianUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void GaussianUnit::configure(const ParamSet& p) {
  stddev_ = p.get_double("stddev", 1.0);
}

void GaussianUnit::process(ProcessContext& ctx) {
  SampleSet out = require_samples(ctx, 0, "Gaussian");
  for (auto& s : out.samples) s += ctx.rng().gaussian(0.0, stddev_);
  ctx.emit(0, std::move(out));
}

// ------------------------------------------------------------------ FftUnit

UnitInfo FftUnit::make_info() {
  UnitInfo i;
  i.type_name = "FFT";
  i.concurrency = Concurrency::kPure;
  i.package = "signalproc";
  i.description = "One-sided power spectrum of a signal";
  i.inputs = {PortSpec{"signal", type_bit(DataType::kSampleSet)}};
  i.outputs = {PortSpec{"spectrum", type_bit(DataType::kSpectrum)}};
  return i;
}

const UnitInfo& FftUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void FftUnit::configure(const ParamSet& p) {
  window_ = dsp::window_from_name(p.get("window", "rect"));
}

void FftUnit::process(ProcessContext& ctx) {
  const SampleSet& in = require_samples(ctx, 0, "FFT");
  ctx.charge_cpu(fft_cost_seconds(in.samples.size()));
  const auto spec = dsp::power_spectrum(in.samples, in.sample_rate, window_);
  SpectrumData out;
  out.bin_width = spec.bin_width;
  out.power = spec.power;
  ctx.emit(0, std::move(out));
}

// ------------------------------------------------------------ AccumStatUnit

UnitInfo AccumStatUnit::make_info() {
  UnitInfo i;
  i.type_name = "AccumStat";
  i.package = "signalproc";
  i.description = "Running element-wise mean over successive iterations";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSpectrum) |
                             type_bit(DataType::kSampleSet)}};
  i.outputs = {PortSpec{"mean", type_bit(DataType::kSpectrum) |
                                type_bit(DataType::kSampleSet)}};
  return i;
}

const UnitInfo& AccumStatUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void AccumStatUnit::process(ProcessContext& ctx) {
  const DataItem& in = ctx.input(0);
  const std::vector<double>* values = nullptr;
  if (in.type() == DataType::kSpectrum) {
    values = &in.spectrum().power;
    meta_ = in.spectrum().bin_width;
    is_spectrum_ = true;
  } else if (in.type() == DataType::kSampleSet) {
    values = &in.samples().samples;
    meta_ = in.samples().sample_rate;
    is_spectrum_ = false;
  } else {
    throw std::invalid_argument("AccumStat: expected spectrum or sample-set");
  }

  if (sums_.empty()) {
    sums_.assign(values->size(), 0.0);
  } else if (sums_.size() != values->size()) {
    throw std::invalid_argument("AccumStat: input length changed mid-stream");
  }
  for (std::size_t i = 0; i < values->size(); ++i) sums_[i] += (*values)[i];
  ++count_;

  std::vector<double> mean(sums_.size());
  const double inv = 1.0 / static_cast<double>(count_);
  for (std::size_t i = 0; i < sums_.size(); ++i) mean[i] = sums_[i] * inv;

  if (is_spectrum_) {
    SpectrumData out;
    out.bin_width = meta_;
    out.power = std::move(mean);
    ctx.emit(0, std::move(out));
  } else {
    SampleSet out;
    out.sample_rate = meta_;
    out.samples = std::move(mean);
    ctx.emit(0, std::move(out));
  }
}

serial::Bytes AccumStatUnit::save_state() const {
  serial::Writer w;
  w.u64(count_);
  w.f64(meta_);
  w.boolean(is_spectrum_);
  w.f64_vector(sums_);
  return w.take();
}

void AccumStatUnit::restore_state(const serial::Bytes& state) {
  serial::Reader r(state);
  count_ = r.u64();
  meta_ = r.f64();
  is_spectrum_ = r.boolean();
  sums_ = r.f64_vector();
}

void AccumStatUnit::reset() {
  count_ = 0;
  sums_.clear();
}

// ----------------------------------------- element-wise map-style transforms

UnitInfo ScalerUnit::make_info() {
  UnitInfo i;
  i.type_name = "Scaler";
  i.concurrency = Concurrency::kPure;
  i.package = "math";
  i.description = "Multiplies every sample (or a scalar) by a factor";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSampleSet) |
                             type_bit(DataType::kScalar)}};
  i.outputs = {PortSpec{"out", type_bit(DataType::kSampleSet) |
                               type_bit(DataType::kScalar)}};
  return i;
}

const UnitInfo& ScalerUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void ScalerUnit::configure(const ParamSet& p) {
  factor_ = p.get_double("factor", 1.0);
}

void ScalerUnit::process(ProcessContext& ctx) {
  const DataItem& in = ctx.input(0);
  if (in.type() == DataType::kScalar) {
    ctx.emit(0, in.scalar() * factor_);
    return;
  }
  SampleSet out = require_samples(ctx, 0, "Scaler");
  for (auto& s : out.samples) s *= factor_;
  ctx.emit(0, std::move(out));
}

UnitInfo OffsetUnit::make_info() {
  UnitInfo i;
  i.type_name = "Offset";
  i.concurrency = Concurrency::kPure;
  i.package = "math";
  i.description = "Adds a constant offset";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSampleSet) |
                             type_bit(DataType::kScalar)}};
  i.outputs = {PortSpec{"out", type_bit(DataType::kSampleSet) |
                               type_bit(DataType::kScalar)}};
  return i;
}

const UnitInfo& OffsetUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void OffsetUnit::configure(const ParamSet& p) {
  offset_ = p.get_double("offset", 0.0);
}

void OffsetUnit::process(ProcessContext& ctx) {
  const DataItem& in = ctx.input(0);
  if (in.type() == DataType::kScalar) {
    ctx.emit(0, in.scalar() + offset_);
    return;
  }
  SampleSet out = require_samples(ctx, 0, "Offset");
  for (auto& s : out.samples) s += offset_;
  ctx.emit(0, std::move(out));
}

UnitInfo RectifierUnit::make_info() {
  UnitInfo i;
  i.type_name = "Rectifier";
  i.concurrency = Concurrency::kPure;
  i.package = "math";
  i.description = "Absolute value of every sample";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSampleSet)}};
  i.outputs = {PortSpec{"out", type_bit(DataType::kSampleSet)}};
  return i;
}

const UnitInfo& RectifierUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void RectifierUnit::process(ProcessContext& ctx) {
  SampleSet out = require_samples(ctx, 0, "Rectifier");
  for (auto& s : out.samples) s = std::abs(s);
  ctx.emit(0, std::move(out));
}

UnitInfo ClipperUnit::make_info() {
  UnitInfo i;
  i.type_name = "Clipper";
  i.concurrency = Concurrency::kPure;
  i.package = "math";
  i.description = "Clamps samples to [lo, hi]";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSampleSet)}};
  i.outputs = {PortSpec{"out", type_bit(DataType::kSampleSet)}};
  return i;
}

const UnitInfo& ClipperUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void ClipperUnit::configure(const ParamSet& p) {
  lo_ = p.get_double("lo", -1.0);
  hi_ = p.get_double("hi", 1.0);
  if (lo_ > hi_) throw std::invalid_argument("Clipper: lo > hi");
}

void ClipperUnit::process(ProcessContext& ctx) {
  SampleSet out = require_samples(ctx, 0, "Clipper");
  for (auto& s : out.samples) s = std::clamp(s, lo_, hi_);
  ctx.emit(0, std::move(out));
}

UnitInfo MovingAverageUnit::make_info() {
  UnitInfo i;
  i.type_name = "MovingAverage";
  i.concurrency = Concurrency::kPure;
  i.package = "signalproc";
  i.description = "Centred moving average smoother";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSampleSet)}};
  i.outputs = {PortSpec{"out", type_bit(DataType::kSampleSet)}};
  return i;
}

const UnitInfo& MovingAverageUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void MovingAverageUnit::configure(const ParamSet& p) {
  const long long w = p.get_int("window", 5);
  if (w < 1) throw std::invalid_argument("MovingAverage: window < 1");
  window_ = static_cast<std::size_t>(w);
}

void MovingAverageUnit::process(ProcessContext& ctx) {
  const SampleSet& in = require_samples(ctx, 0, "MovingAverage");
  SampleSet out;
  out.sample_rate = in.sample_rate;
  out.samples.resize(in.samples.size());
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(window_) / 2;
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(in.samples.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - half);
    const std::ptrdiff_t hi = std::min(n - 1, i + half);
    double acc = 0.0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j) acc += in.samples[j];
    out.samples[i] = acc / static_cast<double>(hi - lo + 1);
  }
  ctx.emit(0, std::move(out));
}

UnitInfo SubsampleUnit::make_info() {
  UnitInfo i;
  i.type_name = "Subsample";
  i.concurrency = Concurrency::kPure;
  i.package = "signalproc";
  i.description = "Keeps every k-th sample";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSampleSet)}};
  i.outputs = {PortSpec{"out", type_bit(DataType::kSampleSet)}};
  return i;
}

const UnitInfo& SubsampleUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void SubsampleUnit::configure(const ParamSet& p) {
  const long long s = p.get_int("stride", 2);
  if (s < 1) throw std::invalid_argument("Subsample: stride < 1");
  stride_ = static_cast<std::size_t>(s);
}

void SubsampleUnit::process(ProcessContext& ctx) {
  const SampleSet& in = require_samples(ctx, 0, "Subsample");
  SampleSet out;
  out.sample_rate = in.sample_rate / static_cast<double>(stride_);
  for (std::size_t i = 0; i < in.samples.size(); i += stride_) {
    out.samples.push_back(in.samples[i]);
  }
  ctx.emit(0, std::move(out));
}

UnitInfo WindowUnit::make_info() {
  UnitInfo i;
  i.type_name = "Window";
  i.concurrency = Concurrency::kPure;
  i.package = "signalproc";
  i.description = "Applies a window function";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSampleSet)}};
  i.outputs = {PortSpec{"out", type_bit(DataType::kSampleSet)}};
  return i;
}

const UnitInfo& WindowUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void WindowUnit::configure(const ParamSet& p) {
  window_ = dsp::window_from_name(p.get("window", "hann"));
}

void WindowUnit::process(ProcessContext& ctx) {
  SampleSet out = require_samples(ctx, 0, "Window");
  const auto w = dsp::make_window(window_, out.samples.size());
  dsp::apply_window(out.samples, w);
  ctx.emit(0, std::move(out));
}

UnitInfo LogScaleUnit::make_info() {
  UnitInfo i;
  i.type_name = "LogScale";
  i.concurrency = Concurrency::kPure;
  i.package = "math";
  i.description = "log10 of samples or spectrum power";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSampleSet) |
                             type_bit(DataType::kSpectrum)}};
  i.outputs = {PortSpec{"out", type_bit(DataType::kSampleSet) |
                              type_bit(DataType::kSpectrum)}};
  return i;
}

const UnitInfo& LogScaleUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void LogScaleUnit::process(ProcessContext& ctx) {
  const DataItem& in = ctx.input(0);
  auto log_map = [](std::vector<double>& v) {
    for (auto& x : v) x = std::log10(std::max(x, 1e-30));
  };
  if (in.type() == DataType::kSpectrum) {
    SpectrumData out = in.spectrum();
    log_map(out.power);
    ctx.emit(0, std::move(out));
  } else if (in.type() == DataType::kSampleSet) {
    SampleSet out = in.samples();
    log_map(out.samples);
    ctx.emit(0, std::move(out));
  } else {
    throw std::invalid_argument("LogScale: expected samples or spectrum");
  }
}

// -------------------------------------------------------- two-input units

namespace {

DataItem combine(const DataItem& a, const DataItem& b, const char* unit,
                 double (*op)(double, double)) {
  if (a.type() == DataType::kScalar && b.type() == DataType::kScalar) {
    return DataItem(op(a.scalar(), b.scalar()));
  }
  if (a.type() == DataType::kSampleSet && b.type() == DataType::kSampleSet) {
    const SampleSet& sa = a.samples();
    const SampleSet& sb = b.samples();
    if (sa.samples.size() != sb.samples.size()) {
      throw std::invalid_argument(std::string(unit) + ": length mismatch");
    }
    SampleSet out = sa;
    for (std::size_t i = 0; i < out.samples.size(); ++i) {
      out.samples[i] = op(out.samples[i], sb.samples[i]);
    }
    return DataItem(std::move(out));
  }
  throw std::invalid_argument(std::string(unit) +
                              ": expected two scalars or two sample-sets");
}

}  // namespace

UnitInfo AdderUnit::make_info() {
  UnitInfo i;
  i.type_name = "Adder";
  i.concurrency = Concurrency::kPure;
  i.package = "math";
  i.description = "Element-wise sum of two inputs";
  i.inputs = {PortSpec{"a", type_bit(DataType::kSampleSet) |
                            type_bit(DataType::kScalar)},
              PortSpec{"b", type_bit(DataType::kSampleSet) |
                            type_bit(DataType::kScalar)}};
  i.outputs = {PortSpec{"sum", type_bit(DataType::kSampleSet) |
                               type_bit(DataType::kScalar)}};
  return i;
}

const UnitInfo& AdderUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void AdderUnit::process(ProcessContext& ctx) {
  ctx.emit(0, combine(ctx.input(0), ctx.input(1), "Adder",
                      [](double x, double y) { return x + y; }));
}

UnitInfo MultiplierUnit::make_info() {
  UnitInfo i;
  i.type_name = "Multiplier";
  i.concurrency = Concurrency::kPure;
  i.package = "math";
  i.description = "Element-wise product of two inputs";
  i.inputs = {PortSpec{"a", type_bit(DataType::kSampleSet) |
                            type_bit(DataType::kScalar)},
              PortSpec{"b", type_bit(DataType::kSampleSet) |
                            type_bit(DataType::kScalar)}};
  i.outputs = {PortSpec{"product", type_bit(DataType::kSampleSet) |
                                   type_bit(DataType::kScalar)}};
  return i;
}

const UnitInfo& MultiplierUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void MultiplierUnit::process(ProcessContext& ctx) {
  ctx.emit(0, combine(ctx.input(0), ctx.input(1), "Multiplier",
                      [](double x, double y) { return x * y; }));
}

UnitInfo CorrelatorUnit::make_info() {
  UnitInfo i;
  i.type_name = "Correlator";
  i.concurrency = Concurrency::kPure;
  i.package = "signalproc";
  i.description = "FFT fast correlation of data against a template";
  i.inputs = {PortSpec{"data", type_bit(DataType::kSampleSet)},
              PortSpec{"template", type_bit(DataType::kSampleSet)}};
  i.outputs = {PortSpec{"correlation", type_bit(DataType::kSampleSet)},
               PortSpec{"peak", type_bit(DataType::kScalar)}};
  return i;
}

const UnitInfo& CorrelatorUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void CorrelatorUnit::process(ProcessContext& ctx) {
  const SampleSet& data = require_samples(ctx, 0, "Correlator");
  const SampleSet& tmpl = require_samples(ctx, 1, "Correlator");
  ctx.charge_cpu(3.0 * fft_cost_seconds(data.samples.size() +
                                        tmpl.samples.size()));
  SampleSet corr;
  corr.sample_rate = data.sample_rate;
  corr.samples = dsp::fast_correlate(data.samples, tmpl.samples);
  const double peak = dsp::normalised_peak(corr.samples, tmpl.samples).peak;
  ctx.emit(0, std::move(corr));
  ctx.emit(1, peak);
}

UnitInfo SpectrumPeakUnit::make_info() {
  UnitInfo i;
  i.type_name = "SpectrumPeak";
  i.concurrency = Concurrency::kPure;
  i.package = "signalproc";
  i.description = "Peak frequency and peak-to-median ratio of a spectrum";
  i.inputs = {PortSpec{"spectrum", type_bit(DataType::kSpectrum)}};
  i.outputs = {PortSpec{"frequency", type_bit(DataType::kScalar)},
               PortSpec{"ratio", type_bit(DataType::kScalar)}};
  return i;
}

const UnitInfo& SpectrumPeakUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void SpectrumPeakUnit::process(ProcessContext& ctx) {
  if (ctx.input(0).type() != DataType::kSpectrum) {
    throw std::invalid_argument("SpectrumPeak: expected a spectrum");
  }
  const SpectrumData& in = ctx.input(0).spectrum();
  dsp::Spectrum s;
  s.bin_width = in.bin_width;
  s.power = in.power;
  ctx.emit(0, dsp::peak_frequency(s));
  ctx.emit(1, dsp::peak_to_median_ratio(s));
}

UnitInfo DelayUnit::make_info() {
  UnitInfo i;
  i.type_name = "Delay";
  i.package = "signalproc";
  i.description = "One-item delay line";
  i.inputs = {PortSpec{"in", kAnyType}};
  i.outputs = {PortSpec{"out", kAnyType}};
  return i;
}

const UnitInfo& DelayUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void DelayUnit::process(ProcessContext& ctx) {
  if (!held_.empty()) ctx.emit(0, held_);
  held_ = ctx.input(0);
}

serial::Bytes DelayUnit::save_state() const {
  return encode_data_item(held_);
}

void DelayUnit::restore_state(const serial::Bytes& state) {
  held_ = decode_data_item(state);
}

UnitInfo IntegratorUnit::make_info() {
  UnitInfo i;
  i.type_name = "Integrator";
  i.package = "math";
  i.description = "Running (element-wise) sum across iterations";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSampleSet) |
                             type_bit(DataType::kScalar)}};
  i.outputs = {PortSpec{"sum", type_bit(DataType::kSampleSet) |
                              type_bit(DataType::kScalar)}};
  return i;
}

const UnitInfo& IntegratorUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void IntegratorUnit::process(ProcessContext& ctx) {
  const DataItem& in = ctx.input(0);
  if (in.type() == DataType::kScalar) {
    scalar_mode_ = true;
    scalar_sum_ += in.scalar();
    ctx.emit(0, scalar_sum_);
    return;
  }
  if (in.type() != DataType::kSampleSet) {
    throw std::invalid_argument("Integrator: expected scalar or sample-set");
  }
  scalar_mode_ = false;
  const SampleSet& s = in.samples();
  rate_ = s.sample_rate;
  if (sums_.empty()) {
    sums_.assign(s.samples.size(), 0.0);
  } else if (sums_.size() != s.samples.size()) {
    throw std::invalid_argument("Integrator: input length changed");
  }
  for (std::size_t i = 0; i < sums_.size(); ++i) sums_[i] += s.samples[i];
  SampleSet out;
  out.sample_rate = rate_;
  out.samples = sums_;
  ctx.emit(0, std::move(out));
}

serial::Bytes IntegratorUnit::save_state() const {
  serial::Writer w;
  w.f64(scalar_sum_);
  w.boolean(scalar_mode_);
  w.f64(rate_);
  w.f64_vector(sums_);
  return w.take();
}

void IntegratorUnit::restore_state(const serial::Bytes& state) {
  serial::Reader r(state);
  scalar_sum_ = r.f64();
  scalar_mode_ = r.boolean();
  rate_ = r.f64();
  sums_ = r.f64_vector();
}

void IntegratorUnit::reset() {
  scalar_sum_ = 0.0;
  sums_.clear();
}

UnitInfo ThresholdUnit::make_info() {
  UnitInfo i;
  i.type_name = "Threshold";
  i.concurrency = Concurrency::kPure;
  i.package = "math";
  i.description = "1 when max |input| exceeds the threshold, else 0";
  i.inputs = {PortSpec{"in", type_bit(DataType::kSampleSet) |
                             type_bit(DataType::kScalar)}};
  i.outputs = {PortSpec{"trigger", type_bit(DataType::kInteger)}};
  return i;
}

const UnitInfo& ThresholdUnit::info() const {
  static const UnitInfo i = make_info();
  return i;
}

void ThresholdUnit::configure(const ParamSet& p) {
  threshold_ = p.get_double("threshold", 1.0);
}

void ThresholdUnit::process(ProcessContext& ctx) {
  const DataItem& in = ctx.input(0);
  double level = 0.0;
  if (in.type() == DataType::kScalar) {
    level = std::abs(in.scalar());
  } else if (in.type() == DataType::kSampleSet) {
    for (double s : in.samples().samples) level = std::max(level, std::abs(s));
  } else {
    throw std::invalid_argument("Threshold: expected samples or scalar");
  }
  ctx.emit(0, static_cast<std::int64_t>(level > threshold_ ? 1 : 0));
}

void register_builtin_transforms(UnitRegistry& r) {
  r.add<GaussianUnit>();
  r.add<FftUnit>();
  r.add<AccumStatUnit>();
  r.add<ScalerUnit>();
  r.add<OffsetUnit>();
  r.add<RectifierUnit>();
  r.add<ClipperUnit>();
  r.add<MovingAverageUnit>();
  r.add<SubsampleUnit>();
  r.add<WindowUnit>();
  r.add<LogScaleUnit>();
  r.add<AdderUnit>();
  r.add<MultiplierUnit>();
  r.add<CorrelatorUnit>();
  r.add<SpectrumPeakUnit>();
  r.add<ThresholdUnit>();
  r.add<DelayUnit>();
  r.add<IntegratorUnit>();
}

}  // namespace cg::core
