// ConGrid -- scripted fault injection: one FaultPlan interpreter for every
// backend.
//
// Chaos tests need misbehaving networks that misbehave the *same way* every
// run. A FaultPlan declares per-link frame fault probabilities plus per-node
// crash windows; NetworkBackend::arm_faults (net/backend.hpp) arms it on
// whichever world it runs on. FaultInjector is the per-frame half: given a
// frame's (from, to) link it decides the frame's fate with its own seeded
// Rng, independent of the network's latency stream, so the same (seed, plan)
// pair replays bit-for-bit on the simulator. The backend schedules the crash
// windows and counts them here.
//
// What a plan can do to a frame in flight, per link: drop it, deliver an
// extra copy, delay it by a sampled extra latency (reordering it past later
// frames), or flip a payload bit. Each backend realises the decision in its
// own world: SimNetwork gives every copy fresh latency and CRC-rejects a
// flipped bit at the receiver; the socket backend turns corruption into a
// drop and holds a duplicate back so it arrives late.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "dsp/rng.hpp"

namespace cg::net {

/// Per-link fault probabilities. All independent per frame; delay is
/// sampled uniformly from [delay_min_s, delay_max_s] when it fires.
struct LinkFaults {
  double drop = 0.0;
  double duplicate = 0.0;   ///< chance of one extra copy
  double corrupt = 0.0;     ///< chance of a single-bit flip in flight
  double delay = 0.0;       ///< chance of extra latency (reordering)
  double delay_min_s = 0.05;
  double delay_max_s = 0.50;
};

/// One scripted outage: `node` goes down `at_s` seconds after the plan is
/// armed and, if `duration_s` is positive, comes back up `duration_s` later
/// (a crash-and-restart). A non-positive duration is a permanent crash.
struct CrashWindow {
  std::uint32_t node = 0;
  double at_s = 0.0;
  double duration_s = 0.0;
};

/// The whole script: ambient faults for every link, overrides for specific
/// (from, to) pairs, and the crash schedule.
struct FaultPlan {
  LinkFaults default_link;
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkFaults> per_link;
  std::vector<CrashWindow> crashes;
};

/// What the injector actually did, for assertions and reports.
struct FaultStats {
  std::uint64_t frames_seen = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t delayed = 0;
  std::uint64_t crashes_opened = 0;
  std::uint64_t crashes_closed = 0;

  bool operator==(const FaultStats&) const = default;
};

/// The fate of one frame in flight. A duplicated frame is delivered
/// `1 + duplicates` times.
struct FaultAction {
  bool drop = false;
  int duplicates = 0;
  double extra_delay_s = 0.0;  ///< added to each copy's latency (reordering)
  bool corrupt = false;        ///< flip payload bits in flight
  /// The extra latency drawn for this frame whether or not the delay fault
  /// fired. The socket backend holds a duplicate back by it; the simulator
  /// samples fresh latency per copy instead and ignores it.
  double copy_lag_s = 0.0;
};

/// Plan + seeded Rng -> one FaultAction per frame, counted in stats().
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Decide the fate of the next frame on link (from, to). Every call
  /// draws the same random numbers whatever the outcome.
  FaultAction on_frame(std::uint32_t from, std::uint32_t to);

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }
  /// The backend counts crash windows it opens and closes here.
  FaultStats& stats() { return stats_; }

 private:
  FaultPlan plan_;
  dsp::Rng rng_;
  FaultStats stats_;
};

}  // namespace cg::net
