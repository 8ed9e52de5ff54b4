#include "net/backend.hpp"

#include <stdexcept>

namespace cg::net {

void NetworkBackend::arm_faults(const FaultPlan& plan, std::uint64_t seed) {
  if (faults_) throw std::logic_error("arm_faults called twice");
  for (const CrashWindow& w : plan.crashes) {
    if (w.at_s < 0.0) {
      throw std::invalid_argument("arm_faults: negative crash window at_s");
    }
  }
  faults_ = std::make_unique<FaultInjector>(plan, seed);
  on_faults_armed();
  for (const CrashWindow& w : faults_->plan().crashes) {
    schedule(w.at_s, [this, node = w.node] {
      set_up(node, false);
      ++faults_->stats().crashes_opened;
    });
    if (w.duration_s > 0.0) {
      schedule(w.at_s + w.duration_s, [this, node = w.node] {
        set_up(node, true);
        ++faults_->stats().crashes_closed;
      });
    }
  }
}

FaultStats NetworkBackend::fault_stats() const {
  return faults_ ? faults_->stats() : FaultStats{};
}

bool SimBackend::run_until(double t_s, const std::function<bool()>& done) {
  while (!done()) {
    if (net_.now() >= t_s) break;
    if (!net_.step()) break;  // event queue drained early
  }
  return done();
}

void SimBackend::on_faults_armed() {
  net_.set_fault_fn([f = faults_.get()](std::uint32_t from, std::uint32_t to,
                                        const serial::Frame&) {
    return f->on_frame(from, to);
  });
}

}  // namespace cg::net
