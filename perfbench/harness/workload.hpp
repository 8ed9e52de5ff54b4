// perfbench -- what every workload section takes and returns.
//
// A run of the benchmark names one workload. Its section fills the --seconds
// budget; because every run must report every end-to-end metric, the other
// two sections run too, at a fixed small size (a "probe"), so a Case-2
// figure is still measured on the farm workload and so on. Sections run in
// segments interleaved over the whole run, each in a process of its own,
// and return raw samples, which are pooled before any median is taken: on
// a shared host the speed drifts over tens of seconds, and a figure sampled
// across the whole run drifts less than one sampled in a single stretch of
// it. The traced run
// (--trace 1) runs only the named section, untraced and then traced, so the
// cost of tracing itself is measured.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fingerprint.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Fingerprint host;
  unsigned threads = 4;      ///< min(4, nproc): engine and verifier threads
  unsigned segment = 0;      ///< which segment of the run is executing
  std::string work_dir;      ///< scratch space inside the checkout
};

enum class Size {
  kMain,   ///< the named workload: fills the --seconds budget
  kProbe,  ///< fixed small size, run so every metric is reported
};

/// What one section (or several segments of it, merged) produced.
struct Section {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;      ///< first few, for stderr
  /// Raw samples keyed by what they measure ("case1.frame_ms", ...);
  /// summarize() turns the pooled samples into end-to-end metrics.
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> layer;    ///< per-layer metric values
  std::vector<double> setup_s;            ///< set-up samples of this section
  std::vector<std::string> meta;          ///< JSON objects: seeds, sizes

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
  void merge(Section&& other);
};

/// End-to-end metrics from a section's pooled samples (only those whose
/// samples are present).
std::map<std::string, double> summarize(const Section& s);

/// `rec` is enabled only in the traced phase of a --trace 1 run. `budget_s`
/// is the main size's time budget (probes ignore it).
Section run_case2(const Options& o, Size size, double budget_s,
                  SpanRecorder& rec);
Section run_case1(const Options& o, Size size, double budget_s,
                  SpanRecorder& rec);
Section run_churn(const Options& o, Size size, double budget_s,
                  SpanRecorder& rec);

/// Kernel replays through the program's public codecs and transforms, on
/// inputs captured from the run (or generated from the seed where the
/// workload has none), into per-layer throughput metrics.
struct ReplayInputs {
  std::vector<double> chunk;                  ///< a Case-2 strain chunk
  std::vector<std::size_t> frame_payloads;    ///< payload sizes sent
  std::vector<std::uint8_t> module_bytes;     ///< one encoded module
  std::string deploy_frame;                   ///< one encoded DeployMsg
};
void replay_kernels(const Options& o, const ReplayInputs& in,
                    std::map<std::string, double>& layer);

/// reliable.* and net.retx_ratio from the program's own registry, summed
/// over every peer that bound it; counts are per operation (`ops`).
void reliable_metrics(const cg::obs::MetricsSnapshot& snap, double ops,
                      std::map<std::string, double>& layer);

/// Layer-share metrics ("self_frac.<layer>", "kind_frac.<group>") over the
/// recorded spans, plus a tree check: returns "" or the violation.
std::string span_shares(const std::vector<Span>& spans,
                        std::map<std::string, double>& layer);

/// Seconds since an arbitrary epoch (steady clock).
double wall_now();

/// Derive an independent 64-bit seed for sub-stream `k` of `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

/// The seed a section draws its inputs from: the workload seed and the
/// segment, so every segment of a run gets fresh inputs.
inline std::uint64_t section_seed(const Options& o) {
  return derive_seed(o.seed, 1000 + o.segment);
}

}  // namespace perfbench
