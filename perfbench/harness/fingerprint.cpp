#include "fingerprint.hpp"

#include <sched.h>
#include <unistd.h>

#include <cstring>

#include "obs/json.hpp"
#include "obs/metrics.hpp"  // CONGRID_OBS_ENABLED

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string sanitizers() {
  std::string s = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__)
  if (s.find("address") == std::string::npos) s += s.empty() ? "address" : ",address";
#endif
#if defined(__SANITIZE_THREAD__)
  if (s.find("thread") == std::string::npos) s += s.empty() ? "thread" : ",thread";
#endif
  return s;
}

}  // namespace

Fingerprint host_fingerprint() {
  Fingerprint f;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    f.nproc = static_cast<unsigned>(CPU_COUNT(&set));
  }
  if (f.nproc == 0) f.nproc = 1;
  f.cpu_model = cpu_brand();
#ifdef _SC_LEVEL3_CACHE_SIZE
  f.llc_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (f.llc_bytes <= 0) f.llc_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (f.llc_bytes < 0) f.llc_bytes = 0;
#endif
  f.build_type = PERFBENCH_BUILD_TYPE;
  f.cxx_flags = PERFBENCH_CXX_FLAGS;
  f.compiler = __VERSION__;
#ifdef __OPTIMIZE__
  f.optimized = true;
#endif
  f.obs_enabled = CONGRID_OBS_ENABLED != 0;
  f.sanitizers = sanitizers();
  if (!f.optimized) f.warning = "unoptimized build";
  if (!f.sanitizers.empty()) {
    f.warning += (f.warning.empty() ? "" : "; ") +
                 std::string("sanitizer build: ") + f.sanitizers;
  }
  return f;
}

std::string to_json(const Fingerprint& f) {
  using cg::obs::json_quote;
  return "{\"nproc\":" + std::to_string(f.nproc) +
         ",\"cpu_model\":" + json_quote(f.cpu_model) +
         ",\"llc_bytes\":" + std::to_string(f.llc_bytes) +
         ",\"build_type\":" + json_quote(f.build_type) +
         ",\"cxx_flags\":" + json_quote(f.cxx_flags) +
         ",\"compiler\":" + json_quote(f.compiler) +
         ",\"optimized\":" + (f.optimized ? "true" : "false") +
         ",\"congrid_obs\":" + (f.obs_enabled ? "\"ON\"" : "\"OFF\"") +
         ",\"sanitizers\":" + json_quote(f.sanitizers) +
         ",\"warning\":" + json_quote(f.warning) + "}";
}

}  // namespace perfbench
