// perfbench -- the ConGrid benchmark.
//
//   perfbench --workload case2-chunk|case1-farm|churn-stormy --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics: the named workload fills the
// --seconds budget and the other two run at a fixed small size alongside it,
// so every end-to-end metric is reported on every workload. Each section of
// each segment, and each half of a traced run, runs in a child process
// (this binary with --section), which the parent waits for. --trace 1 runs
// the named workload untraced for half the budget and traced for the other
// half, and reports the per-layer metrics (and the tracing overhead).
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. The line before it carries the seeds, section details and the
// host/build fingerprint. Progress and failures go to stderr.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "stats.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"case2.s_per_template", "s"},
    {"case1.frames_per_s", "1/s"},
    {"case1.frame_ms.p50", "ms"},
    {"case1.frame_ms.p90", "ms"},
    {"deploy.cold_ms", "ms"},
    {"deploy.warm_ms", "ms"},
    {"churn.completion_rate", "ratio"},
    {"churn.recovery_p95_s", "s"},
    {"churn.wall_s", "s"},
};

const MetricDef kPerLayer[] = {
    {"dsp.matched_filter_s", "s"},
    {"dsp.fft_s", "s"},
    {"dsp.fft_equiv_per_template", "ratio"},
    {"dsp.fft_gflops_computed", "GFLOP/s"},
    {"gw.bank_build_s", "s"},
    {"gw.strain_gen_s", "s"},
    {"engine.tick_s", "s"},
    {"engine.unit_busy_s", "s"},
    {"engine.wave_efficiency", "ratio"},
    {"engine.dispatch_gap_s", "s"},
    {"runtime.barrier_stall_seconds", "s"},
    {"runtime.parallelism", "count"},
    {"galaxy.render_s", "s"},
    {"net.frames_sent.small", "count"},
    {"net.frames_sent.bulk", "count"},
    {"net.bytes_sent.small", "bytes"},
    {"net.bytes_sent.bulk", "bytes"},
    {"net.send_s_per_mb.small", "s/MB"},
    {"net.send_s_per_mb.bulk", "s/MB"},
    {"net.poll_s.small", "s"},
    {"net.poll_s.bulk", "s"},
    {"serial.codec_mb_s", "MB/s"},
    {"serial.crc32_mb_s", "MB/s"},
    {"net.retx_ratio", "ratio"},
    {"reliable.dedup_hits", "count"},
    {"reliable.ack_latency_s", "s"},
    {"reliable.backoff_wait_s", "s"},
    {"reliable.frames_coalesced", "count"},
    {"cas.sha256_mb_s", "MB/s"},
    {"cas.lz_compress_mb_s", "MB/s"},
    {"cas.lz_decompress_mb_s", "MB/s"},
    {"cas.disk_hits", "count"},
    {"cas.bytes_read_disk", "bytes"},
    {"repo.modules_fetched", "count"},
    {"cache.bytes_fetched", "bytes"},
    {"xml.deploy_codec_s", "s"},
    {"service.deploy_rtt_s", "s"},
    {"service.handler_self_s", "s"},
    {"supervisor.probes_sent", "count"},
    {"supervisor.failures_detected", "count"},
    {"supervisor.recoveries", "count"},
    {"supervisor.recoveries_failed", "count"},
    {"service.jobs_fenced", "count"},
    {"service.payloads_bounced", "count"},
    {"churn.wasted_frac", "ratio"},
    {"churn.wedged_frac", "ratio"},
    {"net.timers_fired", "count"},
    {"net.timer_busy_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"self_frac.dsp", "ratio"},
    {"self_frac.gw", "ratio"},
    {"self_frac.engine", "ratio"},
    {"self_frac.galaxy", "ratio"},
    {"self_frac.net", "ratio"},
    {"self_frac.service", "ratio"},
    {"self_frac.timer", "ratio"},
    {"kind_frac.reliable", "ratio"},
    {"kind_frac.supervisor", "ratio"},
    {"kind_frac.data", "ratio"},
};

using Runner = Section (*)(const Options&, Size, double, SpanRecorder&);

struct WorkloadDef {
  const char* name;
  Runner run;
  const char* primary;       ///< e2e metric the tracing overhead is read from
  bool primary_higher_is_better;
};

const WorkloadDef kWorkloads[] = {
    {"churn-stormy", run_churn, "churn.wall_s", false},
    {"case1-farm", run_case1, "case1.frames_per_s", true},
    {"case2-chunk", run_case2, "case2.s_per_template", false},
};

/// Every digit of the measured value: %.17g round-trips a double.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "case2-chunk|case1-farm|churn-stormy --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--spans FILE]\n",
               why);
  std::exit(2);
}

void report_section(const char* name, const Section& s) {
  std::fprintf(stderr, "perfbench: %-13s attempted %llu failed %llu\n", name,
               static_cast<unsigned long long>(s.attempted),
               static_cast<unsigned long long>(s.failed));
  for (const auto& f : s.failures) std::fprintf(stderr, "  FAIL %s\n", f.c_str());
}

// A section run in a child process hands its Section back on stdout, one
// record a line: "<tag> <name> <values...>" with every double at %.17g.

std::string serialize(const Section& s) {
  std::string out = "attempted - " + std::to_string(s.attempted) +
                    "\nfailed - " + std::to_string(s.failed) + "\n";
  const auto values = [&out](const std::string& tag, const std::string& name,
                             const std::vector<double>& v) {
    out += tag + " " + name;
    for (double x : v) out += " " + number(x);
    out += "\n";
  };
  for (const auto& [name, v] : s.samples) values("sample", name, v);
  for (const auto& [name, v] : s.layer) values("layer", name, {v});
  values("setup", "-", s.setup_s);
  for (const auto& f : s.failures) out += "failure - " + f + "\n";
  for (const auto& m : s.meta) out += "meta - " + m + "\n";
  return out;
}

Section deserialize(const std::string& text) {
  Section s;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream in(line);
    std::string tag, name;
    in >> tag >> name;
    std::string rest;
    std::getline(in >> std::ws, rest);
    std::istringstream nums(rest);
    std::vector<double> v;
    for (double x; nums >> x;) v.push_back(x);
    if (tag == "attempted") s.attempted = std::stoull(rest);
    if (tag == "failed") s.failed = std::stoull(rest);
    if (tag == "sample") s.samples[name] = v;
    if (tag == "layer" && !v.empty()) s.layer[name] = v[0];
    if (tag == "setup") s.setup_s = v;
    if (tag == "failure") s.failures.push_back(rest);
    if (tag == "meta") s.meta.push_back(rest);
  }
  return s;
}

/// Run one section of one segment in a fresh process (this binary with
/// --section), so no section runs on the heap another one left behind,
/// and read its Section back. A child that fails counts as one failed
/// operation.
Section run_in_child(const char* self, const Options& o, const char* section,
                     Size size, double budget_s,
                     const std::string& spans_path = {}) {
  const std::string seed = std::to_string(o.seed);
  const std::string segment = std::to_string(o.segment);
  const std::string budget = number(budget_s);
  std::vector<const char*> argv = {
      self,        "--workload", o.workload.c_str(), "--seed", seed.c_str(),
      "--seconds", budget.c_str(), "--trace",       o.trace ? "1" : "0",
      "--work-dir", o.work_dir.c_str(), "--section", section,
      "--segment", segment.c_str(), "--size",
      size == Size::kMain ? "main" : "probe"};
  if (!spans_path.empty()) {
    argv.push_back("--spans");
    argv.push_back(spans_path.c_str());
  }
  argv.push_back(nullptr);
  const double t0 = wall_now();
  int fds[2];
  Section failed;
  failed.attempted = 1;
  if (pipe(fds) != 0) {
    failed.fail(std::string(section) + ": pipe failed");
    return failed;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(self, const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n > 0) text.append(buf, static_cast<std::size_t>(n));
    else if (errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  while (pid > 0 && waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "perfbench: segment %u %s (%s) took %.1f s\n",
               o.segment, section, size == Size::kMain ? "main" : "probe",
               wall_now() - t0);
  if (pid < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    failed.fail(std::string(section) + ": section process failed");
    return failed;
  }
  return deserialize(text);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  std::string spans_path;
  std::string section;  // set in a section process (see run_in_child)
  Size size = Size::kMain;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (!v) usage(("missing value for " + a).c_str());
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
      have_seconds = true;
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || o.trace;
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--spans") {
      spans_path = v;
    } else if (a == "--section") {
      section = v;
    } else if (a == "--segment") {
      o.segment = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (a == "--size") {
      size = std::strcmp(v, "main") == 0 ? Size::kMain : Size::kProbe;
    } else {
      usage(("unknown argument " + a).c_str());
    }
    ++i;
  }
  const WorkloadDef* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (o.workload == w.name) wl = &w;
  }
  if (!wl) usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace ||
      (o.seconds <= 0 && section.empty())) {
    usage("--seed, --seconds (> 0) and --trace 0|1 are required");
  }
  if (o.work_dir.empty()) o.work_dir = ".bench_build/work";
  std::filesystem::create_directories(o.work_dir);

  o.host = host_fingerprint();
  o.threads = std::min(4u, o.host.nproc);
  if (!o.host.warning.empty() && section.empty()) {
    std::fprintf(stderr, "perfbench: WARNING: %s -- figures are not "
                         "comparable with an optimised build\n",
                 o.host.warning.c_str());
  }

  if (!section.empty()) {
    for (const auto& w : kWorkloads) {
      if (section != w.name) continue;
      SpanRecorder rec(o.trace);
      Section out = w.run(o, size, o.seconds, rec);
      if (o.trace) {
        if (!spans_path.empty()) {
          if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
            const std::string body = rec.to_jsonl();
            std::fwrite(body.data(), 1, body.size(), f);
            std::fclose(f);
          }
        }
        // Churn summarises and clears its spans campaign by campaign; the
        // other workloads keep them to here.
        const std::vector<Span> spans = rec.spans();
        if (!spans.empty()) {
          const std::string err = span_shares(spans, out.layer);
          if (!err.empty()) out.fail("span tree: " + err);
        }
      }
      std::fputs(serialize(out).c_str(), stdout);
      return 0;
    }
    usage("unknown --section");
  }

  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, double> values;
  std::string sections_meta;
  const auto add = [&](const char* name, const Section& s) {
    report_section(name, s);
    attempted += s.attempted;
    failed += s.failed;
    if (!sections_meta.empty()) sections_meta += ',';
    std::string metas;
    for (const auto& m : s.meta) metas += (metas.empty() ? "" : ",") + m;
    // Each pooled sample set with its size and within-run spread, so a
    // noisy figure can be told from a noisy host.
    std::string counts;
    for (const auto& [k, v] : s.samples) {
      counts += (counts.empty() ? "" : ",") + cg::obs::json_quote(k) +
                ":{\"n\":" + std::to_string(v.size()) +
                ",\"iqr_share\":" + number(iqr_share(v)) + "}";
    }
    sections_meta += cg::obs::json_quote(name) + ":{\"segments\":[" + metas +
                     "],\"samples\":{" + counts + "}}";
  };

  if (!o.trace) {
    // Segments interleave the three sections over the whole run, each
    // section in a process of its own: the churn simulator's speed depends
    // on the heap state whatever ran before it leaves.
    constexpr int kSegments = 3;
    std::map<const WorkloadDef*, Section> pooled;
    for (int seg = 0; seg < kSegments; ++seg) {
      o.segment = static_cast<unsigned>(seg);
      for (const auto& w : kWorkloads) {
        pooled[&w].merge(
            &w == wl ? run_in_child(argv[0], o, w.name, Size::kMain,
                                    o.seconds / kSegments)
                     : run_in_child(argv[0], o, w.name, Size::kProbe, 0.0));
      }
    }
    for (const auto& w : kWorkloads) {
      add(w.name, pooled[&w]);
      for (const auto& [k, v] : summarize(pooled[&w])) values[k] = v;
    }
    values["setup_s"] = median(pooled[wl].setup_s);
    std::size_t frames = 0, recoveries = 0;
    for (const auto& [w, s] : pooled) {
      if (const auto it = s.samples.find("case1.frame_ms"); it != s.samples.end()) {
        frames = it->second.size();
      }
      if (const auto it = s.samples.find("churn.recovery_s"); it != s.samples.end()) {
        recoveries = it->second.size();
      }
    }
    const double pcts[] = {50, 90, 95, 99, 99.9};
    std::fprintf(stderr,
                 "perfbench: %zu frame latencies (highest percentile with 10 "
                 "beyond: p%g), %zu recoveries (p%g)\n",
                 frames, highest_supported_percentile(frames, pcts).value_or(0),
                 recoveries,
                 highest_supported_percentile(recoveries, pcts).value_or(0));
  } else {
    // Both halves in fresh processes, so neither inherits the other's warm
    // heap and the difference between them is the cost of tracing.
    o.trace = false;
    const Section plain =
        run_in_child(argv[0], o, wl->name, Size::kMain, o.seconds / 2);
    add("untraced", plain);
    o.trace = true;
    const Section traced = run_in_child(argv[0], o, wl->name, Size::kMain,
                                        o.seconds / 2, spans_path);
    add("traced", traced);
    values = traced.layer;
    const auto u_all = summarize(plain), t_all = summarize(traced);
    const double u = u_all.count(wl->primary) ? u_all.at(wl->primary) : 0;
    const double t = t_all.count(wl->primary) ? t_all.at(wl->primary) : 0;
    values["trace.overhead_frac"] =
        u > 0 && t > 0 ? (wl->primary_higher_is_better ? u / t : t / u) - 1.0
                       : 0.0;
  }

  std::string metrics;
  const auto emit = [&](const MetricDef& m) {
    if (!metrics.empty()) metrics += ',';
    const auto it = values.find(m.name);
    metrics += cg::obs::json_quote(m.name) + ":{\"value\":" +
               number(it == values.end() ? 0.0 : it->second) +
               ",\"unit\":" + cg::obs::json_quote(m.unit) + "}";
  };
  if (o.trace) {
    for (const auto& m : kPerLayer) emit(m);
  } else {
    for (const auto& m : kEndToEnd) emit(m);
  }

  std::printf("{\"perfbench\":{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
              "\"trace\":%d,\"sections\":{%s},\"fingerprint\":%s}}\n",
              cg::obs::json_quote(o.workload).c_str(),
              static_cast<unsigned long long>(o.seed), number(o.seconds).c_str(),
              o.trace ? 1 : 0, sections_meta.c_str(),
              to_json(o.host).c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
