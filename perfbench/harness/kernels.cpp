// Kernel replays and registry/span summaries shared by the workloads.
//
// Replays push the run's captured inputs (or, where a workload has none,
// inputs generated from the seed) through the program's public kernels:
// the FFT and matched filter, the frame codec and CRC, SHA-256 and LZ, and
// the DeployMsg XML codec. They report throughput per layer; the same
// figure on a workload that never calls the kernel shows it flat.
#include <chrono>
#include <cmath>
#include <functional>

#include "apps/gw/chirp.hpp"
#include "apps/gw/template_bank.hpp"
#include "cas/compress.hpp"
#include "cas/hash.hpp"
#include "core/graph/taskgraph_xml.hpp"
#include "core/service/protocol.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "repo/artifact.hpp"
#include "serial/crc32.hpp"
#include "serial/frame.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

/// Median wall seconds of `fn` over `reps` calls, at least `min_reps` and
/// until `min_total_s` has been spent.
double time_median(const std::function<void()>& fn, int min_reps,
                   double min_total_s) {
  std::vector<double> t;
  const double start = wall_now();
  while (static_cast<int>(t.size()) < min_reps ||
         (wall_now() - start < min_total_s && t.size() < 10000)) {
    const double t0 = wall_now();
    fn();
    t.push_back(wall_now() - t0);
  }
  return median(t);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void Section::merge(Section&& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (auto& f : other.failures) {
    if (failures.size() < 8) failures.push_back(std::move(f));
  }
  for (auto& [name, v] : other.samples) {
    auto& mine = samples[name];
    mine.insert(mine.end(), v.begin(), v.end());
  }
  for (const auto& [name, v] : other.layer) layer[name] = v;
  setup_s.insert(setup_s.end(), other.setup_s.begin(), other.setup_s.end());
  for (auto& m : other.meta) meta.push_back(std::move(m));
}

std::map<std::string, double> summarize(const Section& s) {
  std::map<std::string, double> out;
  const auto get = [&s](const char* name) -> const std::vector<double>* {
    const auto it = s.samples.find(name);
    return it == s.samples.end() || it->second.empty() ? nullptr : &it->second;
  };
  if (const auto* v = get("case2.s_per_template")) {
    out["case2.s_per_template"] = median(*v);
  }
  if (const auto* f = get("case1.frames")) {
    const auto* t = get("case1.loop_s");
    out["case1.frames_per_s"] = t && sum(*t) > 0 ? sum(*f) / sum(*t) : 0.0;
  }
  if (const auto* v = get("case1.frame_ms")) {
    out["case1.frame_ms.p50"] = percentile(*v, 50);
    out["case1.frame_ms.p90"] = percentile(*v, 90);
  }
  if (const auto* v = get("deploy.cold_ms")) out["deploy.cold_ms"] = median(*v);
  if (const auto* v = get("deploy.warm_ms")) out["deploy.warm_ms"] = median(*v);
  // Pooled over campaigns: a campaign whose home job wedges loses most of
  // its later items, and that loss is what the figure must see.
  if (const auto* d = get("churn.items_done")) {
    const auto* e = get("churn.items_expected");
    out["churn.completion_rate"] = e && sum(*e) > 0 ? sum(*d) / sum(*e) : 0.0;
  }
  if (const auto* v = get("churn.recovery_s")) {
    out["churn.recovery_p95_s"] = percentile(*v, 95);
  }
  if (const auto* v = get("churn.wall_s")) out["churn.wall_s"] = median(*v);
  return out;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  // splitmix64 of (seed, k): independent streams per sub-purpose.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void replay_kernels(const Options& o, const ReplayInputs& in,
                    std::map<std::string, double>& layer) {
  namespace gw = cg::gw;
  namespace serial = cg::serial;
  volatile double sink = 0.0;

  // -- dsp: one matched filter and one FFT at the padded chunk length.
  std::vector<double> chunk = in.chunk;
  if (chunk.empty()) {
    cg::dsp::Rng rng(derive_seed(o.seed, 3));
    chunk = gw::make_strain_chunk(gw::DetectorSpec{}, rng);
  }
  gw::BankSpec bank;
  bank.n_templates = 16;
  gw::ChirpParams cp;
  cp.chirp_mass_msun = gw::TemplateBank::chirp_mass_for(bank, 0);
  const std::vector<double> tmpl = gw::make_chirp(cp);
  const double mf_s = time_median(
      [&] { sink = sink + cg::dsp::matched_filter(chunk, tmpl).peak; }, 3, 0.0);
  const std::size_t n = cg::dsp::next_pow2(chunk.size() + tmpl.size() - 1);
  std::vector<cg::dsp::Complex> base(n);
  for (std::size_t i = 0; i < chunk.size(); ++i) base[i] = chunk[i];
  std::vector<cg::dsp::Complex> work;
  std::vector<double> fft_t;
  for (int r = 0; r < 5; ++r) {
    work = base;
    const double t0 = wall_now();
    cg::dsp::fft(work);
    fft_t.push_back(wall_now() - t0);
    sink = sink + work[1].real();
  }
  const double fft_s = median(fft_t);
  layer["dsp.matched_filter_s"] = mf_s;
  layer["dsp.fft_s"] = fft_s;
  layer["dsp.fft_equiv_per_template"] = fft_s > 0 ? mf_s / fft_s : 0.0;
  const double nd = static_cast<double>(n);
  layer["dsp.fft_gflops_computed"] =
      fft_s > 0 ? 5.0 * nd * std::log2(nd) / fft_s / 1e9 : 0.0;

  // -- serial: frame encode + decode, and CRC-32, at the payload sizes the
  // workload sent (a 512 kB image frame and a 64 B control frame when it
  // sent none).
  std::vector<std::size_t> sizes = in.frame_payloads;
  if (sizes.empty()) sizes = {512 * 1024 + 64, 64};
  double codec_bytes = 0, codec_s = 0, crc_bytes = 0, crc_s = 0;
  for (std::size_t sz : sizes) {
    serial::Frame f;
    f.type = serial::FrameType::kData;
    f.payload.resize(sz);
    for (std::size_t i = 0; i < sz; ++i) {
      f.payload[i] = static_cast<std::uint8_t>(i * 131u + 7u);
    }
    const double budget = 0.02;
    codec_s += time_median(
        [&] {
          const serial::Bytes wire = serial::encode_frame(f);
          serial::FrameDecoder dec;
          dec.feed(wire);
          sink = sink + static_cast<double>(dec.next()->payload.size());
        },
        5, budget);
    codec_bytes += static_cast<double>(sz);
    crc_s += time_median(
        [&] { sink = sink + serial::crc32(f.payload); }, 5, budget);
    crc_bytes += static_cast<double>(sz);
  }
  layer["serial.codec_mb_s"] = codec_s > 0 ? codec_bytes / codec_s / 1e6 : 0.0;
  layer["serial.crc32_mb_s"] = crc_s > 0 ? crc_bytes / crc_s / 1e6 : 0.0;

  // -- cas: SHA-256 and LZ over one encoded module.
  std::vector<std::uint8_t> module = in.module_bytes;
  if (module.empty()) {
    module = cg::repo::encode_artifact(
        cg::repo::make_synthetic_artifact("RenderFrame", "1.0", 256 * 1024));
  }
  const double mb = static_cast<double>(module.size()) / 1e6;
  const double sha_s = time_median(
      [&] { sink = sink + cg::cas::sha256(module).bytes[0]; }, 5, 0.05);
  const serial::Bytes packed = cg::cas::compress(module);
  const double lz_s = time_median(
      [&] { sink = sink + static_cast<double>(cg::cas::compress(module).size()); },
      5, 0.05);
  const double unlz_s = time_median(
      [&] { sink = sink + static_cast<double>(cg::cas::decompress(packed).size()); },
      5, 0.05);
  layer["cas.sha256_mb_s"] = sha_s > 0 ? mb / sha_s : 0.0;
  layer["cas.lz_compress_mb_s"] = lz_s > 0 ? mb / lz_s : 0.0;
  layer["cas.lz_decompress_mb_s"] = unlz_s > 0 ? mb / unlz_s : 0.0;

  // -- xml: DeployMsg encode + decode.
  serial::Frame deploy;
  deploy.type = serial::FrameType::kControl;
  if (!in.deploy_frame.empty()) {
    deploy.payload.assign(in.deploy_frame.begin(), in.deploy_frame.end());
  } else {
    cg::core::TaskGraph g("replay");
    g.add_task("Wave", "Wave");
    g.add_task("Sink", "Grapher");
    g.connect("Wave", 0, "Sink", 0);
    cg::core::DeployMsg m;
    m.job_id = "replay#1";
    m.owner = "home";
    m.graph_xml = cg::core::write_taskgraph(g, false);
    m.module_hashes["Wave"] = cg::cas::sha256(module).hex();
    deploy = cg::core::encode(m);
  }
  const cg::core::DeployMsg msg = cg::core::decode_deploy(deploy);
  layer["xml.deploy_codec_s"] = time_median(
      [&] {
        const serial::Frame f = cg::core::encode(msg);
        sink = sink + static_cast<double>(
                          cg::core::decode_deploy(f).graph_xml.size());
      },
      5, 0.02);
}

void reliable_metrics(const cg::obs::MetricsSnapshot& snap, double ops,
                      std::map<std::string, double>& layer) {
  double sent = 0, retx = 0, dedup = 0, coalesced = 0;
  double ack_sum = 0, ack_n = 0, wait_sum = 0, wait_n = 0;
  for (const auto& [name, v] : snap.counters) {
    if (ends_with(name, ".reliable.sent")) sent += static_cast<double>(v);
    if (ends_with(name, ".reliable.retransmits")) retx += static_cast<double>(v);
    if (ends_with(name, ".reliable.dedup_hits")) dedup += static_cast<double>(v);
    if (ends_with(name, ".reliable.frames_coalesced")) {
      coalesced += static_cast<double>(v);
    }
  }
  for (const auto& [name, h] : snap.histograms) {
    if (ends_with(name, ".reliable.ack_latency_s")) {
      ack_sum += h.sum;
      ack_n += static_cast<double>(h.count);
    }
    if (ends_with(name, ".reliable.backoff_wait_s")) {
      wait_sum += h.sum;
      wait_n += static_cast<double>(h.count);
    }
  }
  layer["net.retx_ratio"] = sent > 0 ? retx / sent : 0.0;
  layer["reliable.dedup_hits"] = ops > 0 ? dedup / ops : 0.0;
  layer["reliable.frames_coalesced"] = ops > 0 ? coalesced / ops : 0.0;
  layer["reliable.ack_latency_s"] = ack_n > 0 ? ack_sum / ack_n : 0.0;
  layer["reliable.backoff_wait_s"] = wait_n > 0 ? wait_sum / wait_n : 0.0;
}

std::string span_shares(const std::vector<Span>& spans,
                        std::map<std::string, double>& layer) {
  static const char* kLayers[] = {"dsp",    "gw",      "engine", "galaxy",
                                  "net",    "service", "timer"};
  // Shares of the summed self time: on one thread that is the wall time of
  // the operations, with parallel units it is the busy thread-time.
  const std::vector<double> self = self_times(spans);
  double total = 0.0;
  std::map<std::string, double> by_layer, by_group;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    total += self[i];
    const std::string prefix = s.layer.substr(0, s.layer.find('.'));
    by_layer[prefix] += self[i];
    if (s.kind == "ack" || s.kind == "retx") by_group["reliable"] += self[i];
    if (s.kind == "probe" || s.kind == "checkpoint" || s.kind == "recovery") {
      by_group["supervisor"] += self[i];
    }
    if (s.kind == "data") by_group["data"] += self[i];
  }
  for (const char* l : kLayers) {
    layer[std::string("self_frac.") + l] = total > 0 ? by_layer[l] / total : 0.0;
  }
  for (const char* g : {"reliable", "supervisor", "data"}) {
    layer[std::string("kind_frac.") + g] = total > 0 ? by_group[g] / total : 0.0;
  }
  return check_tree(spans);
}

}  // namespace perfbench
