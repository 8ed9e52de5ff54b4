// case2-chunk: the paper's Case 2 (section 3.6.2) at full chunk size.
//
// One 900 s chunk (1.8 M samples at 2 kS/s) from StrainSource is fanned out
// to InspiralFilter bank slices as a TaskGraph on GraphRuntime with
// max_threads = min(4, nproc). The FFT matched filter and the wave
// scheduler do nearly all the work; the network, codecs and stores do none.
//
// Operation: one template scanned against one chunk. A tick scans the whole
// 16-template bank (4 slices x 4); a probe ticks once over 4 templates.
// Correctness: every slice's best SNR must equal, bit for bit, a serial
// gw::scan_chunk reference over the same chunk and bank slice; a slice
// that differs fails all of its templates.
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "apps/gw/search.hpp"
#include "apps/gw/units.hpp"
#include "core/engine/runtime.hpp"
#include "core/unit/builtin.hpp"
#include "obs/obs.hpp"
#include "stats.hpp"
#include "traced.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace core = cg::core;
namespace gw = cg::gw;

constexpr int kBankTemplates = 16;
constexpr int kSlices = 4;
constexpr std::size_t kChunkSamples = 1800000;  // 900 s x 2000 S/s

struct Params {
  int per_slice = 4;  ///< templates per slice
  double chirp_mass = 1.2;
  std::int64_t inject_offset = 1000;
  std::uint64_t rng_seed = 1;
};

core::ParamSet strain_params(const Params& p) {
  core::ParamSet sp;
  sp.set_int("samples", static_cast<std::int64_t>(kChunkSamples));
  sp.set_int("inject_every", 2);
  sp.set_int("inject_offset", p.inject_offset);
  sp.set_double("chirp_mass", p.chirp_mass);
  return sp;
}

core::TaskGraph chunk_graph(const Params& p) {
  core::TaskGraph g("case2_chunk");
  g.add_task("Strain", "StrainSource", strain_params(p));
  for (int s = 0; s < kSlices; ++s) {
    const std::string n = std::to_string(s);
    core::ParamSet fp;
    fp.set_int("n_templates", kBankTemplates);
    fp.set_int("first", s * p.per_slice);
    fp.set_int("count", p.per_slice);
    g.add_task("Filter" + n, "InspiralFilter", fp);
    g.add_task("Snr" + n, "Grapher");
    g.add_task("Hits" + n, "StatSink");
    g.connect("Strain", 0, "Filter" + n, 0);
    g.connect("Filter" + n, 0, "Snr" + n, 0);
    g.connect("Filter" + n, 1, "Hits" + n, 0);
  }
  return g;
}

/// The same source alone: with the same runtime seed and task name its RNG
/// stream, and so every chunk, matches the measured graph's.
core::TaskGraph strain_only_graph(const Params& p) {
  core::TaskGraph g("case2_reference");
  g.add_task("Strain", "StrainSource", strain_params(p));
  g.add_task("Chunks", "Grapher");
  g.connect("Strain", 0, "Chunks", 0);
  return g;
}

const core::UnitRegistry& base_registry() {
  static const core::UnitRegistry r = [] {
    core::UnitRegistry reg = core::UnitRegistry::with_builtins();
    gw::register_gw_units(reg);
    return reg;
  }();
  return r;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

}  // namespace

Section run_case2(const Options& o, Size size, double budget_s,
                  SpanRecorder& rec) {
  Section out;
  Params p;
  p.per_slice = size == Size::kMain ? 4 : 1;
  const std::uint64_t s = derive_seed(section_seed(o), 2);
  p.rng_seed = s;
  p.chirp_mass = 1.0 + 0.6 * static_cast<double>(s % 1000) / 1000.0;
  p.inject_offset = 1000 + static_cast<std::int64_t>((s >> 10) % 400000);
  const int templates_per_tick = kSlices * p.per_slice;

  const bool traced = rec.enabled();
  const core::UnitRegistry traced_reg =
      traced ? timed_registry(base_registry(), rec,
                              {{"InspiralFilter", {"dsp", "gw.bank"}},
                               {"StrainSource", {"gw.strain", "gw.config"}}})
             : core::UnitRegistry{};
  const core::UnitRegistry& reg = traced ? traced_reg : base_registry();
  const core::TaskGraph g = chunk_graph(p);
  const core::RuntimeOptions ropt{.rng_seed = p.rng_seed,
                                  .max_threads = o.threads};

  // Set-up: graph runtime construction, which configures every filter and
  // so builds its template bank. Repeated; the median is reported.
  const int setups = size == Size::kMain ? 3 : 1;
  std::unique_ptr<core::GraphRuntime> rt;
  for (int i = 0; i < setups; ++i) {
    rt.reset();
    const std::uint32_t op = rec.begin_op("engine.setup");
    const double t0 = wall_now();
    rt = std::make_unique<core::GraphRuntime>(g, reg, ropt);
    out.setup_s.push_back(wall_now() - t0);
    rec.end_op(op);
  }
  cg::obs::Registry obs_reg;
  if (traced) rt->set_obs(obs_reg, "case2");

  // Timed scan: whole ticks, at least one, and no tick the last one says
  // would end past the budget (a tick takes seconds; overrunning by one
  // would double the verification below on a fast host).
  std::vector<double> tick_s;
  const double start = wall_now();
  while (tick_s.empty() ||
         (size == Size::kMain &&
          wall_now() - start + tick_s.back() <= budget_s)) {
    const std::uint32_t op = rec.begin_op("engine.tick");
    const double t0 = wall_now();
    rt->run(1);
    tick_s.push_back(wall_now() - t0);
    rec.end_op(op);
  }
  const std::size_t ticks = tick_s.size();
  std::vector<std::vector<double>> snr(kSlices);
  for (int sl = 0; sl < kSlices; ++sl) {
    for (const auto& item :
         rt->unit_as<core::GrapherUnit>("Snr" + std::to_string(sl))->items()) {
      snr[sl].push_back(item.scalar());
    }
  }
  const auto snap = obs_reg.snapshot();
  rt.reset();  // joins the engine's pool before the verifier starts

  // Reference: regenerate each chunk and scan every slice serially, one
  // slice per verifier thread.
  core::GraphRuntime ref(strain_only_graph(p), base_registry(),
                         core::RuntimeOptions{.rng_seed = p.rng_seed});
  ref.run(ticks);
  const auto& chunks = ref.unit_as<core::GrapherUnit>("Chunks")->items();
  gw::BankSpec bspec;
  bspec.n_templates = kBankTemplates;
  const gw::TemplateBank bank(bspec);
  std::uint64_t digest = 1469598103934665603ull;
  std::vector<double> first_chunk;
  for (std::size_t k = 0; k < ticks; ++k) {
    const std::vector<double>& chunk = chunks.at(k).samples().samples;
    std::vector<gw::SearchResult> refs(kSlices);
    std::vector<std::thread> workers;
    for (int sl = 0; sl < kSlices; ++sl) {
      workers.emplace_back([&, sl] {
        refs[sl] = gw::scan_chunk(chunk, bank, sl * p.per_slice, p.per_slice);
      });
      if (workers.size() >= o.threads) {
        for (auto& w : workers) w.join();
        workers.clear();
      }
    }
    for (auto& w : workers) w.join();
    for (int sl = 0; sl < kSlices; ++sl) {
      out.attempted += static_cast<std::uint64_t>(p.per_slice);
      const bool ok = k < snr[sl].size() && bits(snr[sl][k]) == bits(refs[sl].best_snr);
      if (!ok) {
        out.failed += static_cast<std::uint64_t>(p.per_slice) - 1;
        out.fail("case2: tick " + std::to_string(k) + " slice " +
                 std::to_string(sl) + " best SNR differs from the serial "
                 "scan_chunk reference");
      }
      digest = (digest ^ bits(refs[sl].best_snr)) * 1099511628211ull;
      digest = (digest ^ refs[sl].best_offset) * 1099511628211ull;
      digest = (digest ^ refs[sl].best_template) * 1099511628211ull;
    }
    if (k == 0) first_chunk = chunk;
  }

  for (double t : tick_s) {
    out.samples["case2.s_per_template"].push_back(t * o.threads /
                                                  templates_per_tick);
  }
  char meta[256];
  std::snprintf(meta, sizeof meta,
                "{\"rng_seed\":%llu,\"chirp_mass\":%.4f,\"inject_offset\":%lld,"
                "\"ticks\":%zu,\"templates_per_tick\":%d,\"threads\":%u,"
                "\"digest\":\"%016llx\"}",
                static_cast<unsigned long long>(p.rng_seed), p.chirp_mass,
                static_cast<long long>(p.inject_offset), ticks,
                templates_per_tick, o.threads,
                static_cast<unsigned long long>(digest));
  out.meta.push_back(meta);

  if (traced) {
    const std::vector<Span> spans = rec.spans();
    const std::vector<double> self = self_times(spans);
    std::vector<double> tick_d, busy, eff, gap, strain, bank_setup;
    std::map<std::uint32_t, double> busy_by_op, bank_by_op;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      const double d = sp.end - sp.start;
      if (sp.layer == "dsp" || sp.layer == "gw.strain") busy_by_op[sp.op] += d;
      if (sp.layer == "gw.strain") strain.push_back(d);
      if (sp.layer == "gw.bank") bank_by_op[sp.op] += d;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      if (sp.layer != "engine.tick") continue;
      const double d = sp.end - sp.start;
      tick_d.push_back(d);
      busy.push_back(busy_by_op[sp.id]);
      eff.push_back(busy_by_op[sp.id] / (o.threads * d));
      gap.push_back(self[i]);
    }
    for (const auto& [op, b] : bank_by_op) bank_setup.push_back(b);
    out.layer["engine.tick_s"] = median(tick_d);
    out.layer["engine.unit_busy_s"] = median(busy);
    out.layer["engine.wave_efficiency"] = median(eff);
    out.layer["engine.dispatch_gap_s"] = median(gap);
    out.layer["gw.strain_gen_s"] = median(strain);
    out.layer["gw.bank_build_s"] = median(bank_setup);
    if (const auto* h = snap.histogram("case2.runtime.barrier_stall_seconds")) {
      out.layer["runtime.barrier_stall_seconds"] =
          ticks ? h->sum / static_cast<double>(ticks) : 0.0;
    }
    out.layer["runtime.parallelism"] = snap.gauge("case2.runtime.parallelism");
    ReplayInputs in;
    in.chunk = std::move(first_chunk);
    replay_kernels(o, in, out.layer);
  }
  return out;
}

}  // namespace perfbench
