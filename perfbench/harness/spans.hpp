// perfbench -- in-memory span recorder for the traced run.
//
// The benchmark times the calls it makes into each layer of the program from
// the outside: decorator units, a decorator transport and wrapped timer
// callbacks each open a span around the call they forward. A span carries
// its layer name, start and end (steady-clock seconds since the recorder was
// made), its parent and the operation it belongs to. Spans stay in memory
// and are summarised (or written out) when the run ends.
//
// Parenting: a span opened on a thread inherits that thread's innermost open
// span. A thread with nothing open (a worker-pool thread running a unit in
// wave-parallel mode) inherits the operation root the coordinator published
// with begin_op(), so unit spans on pool threads still hang off their tick.
//
// Self time of a span is its duration minus the union of its children's
// intervals, so children that overlap on several threads are not
// double-subtracted: the self time of a tick is the time no unit ran at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;      ///< 1-based; 0 means "none"
  std::uint32_t parent = 0;  ///< 0 for an operation root
  std::uint32_t op = 0;      ///< id of the operation root
  std::string layer;         ///< e.g. "dsp", "net.send", "service"
  std::string kind;          ///< free classification ("ack", "bulk", ...)
  double start = 0.0;
  double end = -1.0;         ///< < start while open
  std::uint64_t bytes = 0;
};

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and costs one branch per call.
  explicit SpanRecorder(bool enabled = true);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Seconds since construction (steady clock).
  double now() const;

  /// Open a span as a child of the calling thread's innermost open span
  /// (or of the published operation root). Returns 0 when disabled.
  std::uint32_t begin(std::string_view layer, std::string_view kind = {},
                      std::uint64_t bytes = 0);
  void end(std::uint32_t id);

  /// Open an operation root: a span with no parent, whose id becomes the
  /// op id of everything opened beneath it until end_op().
  std::uint32_t begin_op(std::string_view layer, std::string_view kind = {});
  void end_op(std::uint32_t id);

  /// Reclassify an open or closed span (e.g. a timer span learns what it
  /// sent only after its callback ran).
  void set_kind(std::uint32_t id, std::string_view kind);

  /// Snapshot of every span, in id order.
  std::vector<Span> spans() const;
  void clear();

  /// JSONL dump, one span per line.
  std::string to_jsonl() const;

 private:
  bool enabled_;
  double t0_ = 0.0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<std::uint32_t> op_root_{0};
};

/// RAII span; a no-op when the recorder is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view layer,
             std::string_view kind = {}, std::uint64_t bytes = 0)
      : rec_(rec && rec->enabled() ? rec : nullptr),
        id_(rec_ ? rec_->begin(layer, kind, bytes) : 0) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

/// Per-span self time: duration minus the union of the children's
/// intervals (clipped to the parent). Indexed like the input (spans[i]).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Structural check of a span set: every span closed, every child's
/// interval inside its parent's, every child in its parent's operation and
/// exactly one root (parent 0) per operation. Returns "" when the spans form
/// a forest of well-nested trees, else the first violation found.
std::string check_tree(const std::vector<Span>& spans);

}  // namespace perfbench
