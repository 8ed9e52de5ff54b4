// perfbench -- host and build fingerprint stamped on every result.
//
// A figure is only comparable with another taken on the same kind of host
// and build, so each run records what it ran on: processors usable, CPU
// model, last-level cache, build type and flags, the observability mode
// and any sanitizer. A build that is not optimised or carries a sanitizer
// is flagged, because its timings say nothing about the shipped program.
// Everything is read from the CPU and the process itself (cpuid,
// sched_getaffinity), never from files outside the benchmark's checkout.
#pragma once

#include <string>

namespace perfbench {

struct Fingerprint {
  unsigned nproc = 1;        ///< processors this process may run on
  std::string cpu_model;
  long llc_bytes = 0;        ///< last-level cache; 0 when unknown
  std::string build_type;    ///< CMAKE_BUILD_TYPE of the benchmark build
  std::string cxx_flags;
  std::string compiler;
  bool optimized = false;    ///< compiled with optimisation
  bool obs_enabled = false;  ///< CONGRID_OBS (metrics/tracing compiled in)
  std::string sanitizers;    ///< "" when none
  /// Non-empty when the figures should not be compared with a release
  /// ledger ("unoptimized build", "sanitizer build: address").
  std::string warning;
};

Fingerprint host_fingerprint();

/// One JSON object.
std::string to_json(const Fingerprint& f);

}  // namespace perfbench
