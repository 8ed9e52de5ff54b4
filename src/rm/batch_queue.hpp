// ConGrid -- simulated batch queue (the GRAM / cluster substitution).
//
// The paper's peers may front "parallel machines or workstation clusters"
// reached through Globus GRAM. We model that gateway in simulated time: a
// fixed number of slots, a queueing delay drawn per submission, and jobs
// with a declared duration. Used by the sim-based benches to represent
// organisation-owned resources next to consumer peers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "dsp/rng.hpp"
#include "net/time.hpp"

namespace cg::rm {

struct BatchQueueOptions {
  unsigned slots = 8;                 ///< concurrently running jobs
  double mean_queue_overhead_s = 30;  ///< exponential scheduling delay
};

struct BatchQueueStats {
  std::uint64_t submitted = 0;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::size_t max_queue_length = 0;
  double busy_seconds = 0;  ///< total slot-seconds of execution
};

/// Virtual-time batch scheduler. All activity happens through the supplied
/// Scheduler/Clock (normally a SimBackend's scheduler() and clock()).
class SimBatchQueue {
 public:
  SimBatchQueue(net::Scheduler scheduler, net::Clock clock,
                BatchQueueOptions options = {}, std::uint64_t seed = 1);

  /// Submit a job of `duration_s` simulated seconds; `on_complete` runs in
  /// virtual time when it finishes.
  void submit(double duration_s, std::function<void()> on_complete);

  unsigned busy_slots() const { return busy_; }
  std::size_t queued() const { return waiting_.size(); }
  const BatchQueueStats& stats() const { return stats_; }

 private:
  struct Pending {
    double duration_s;
    std::function<void()> on_complete;
  };

  void try_start();

  net::Scheduler scheduler_;
  net::Clock clock_;
  BatchQueueOptions options_;
  dsp::Rng rng_;
  std::deque<Pending> waiting_;
  unsigned busy_ = 0;
  BatchQueueStats stats_;
};

}  // namespace cg::rm
