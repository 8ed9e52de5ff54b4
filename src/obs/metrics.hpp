// ConGrid -- lock-cheap metrics: counters, gauges, fixed-bucket histograms.
//
// The control plane made reliable in PR 2 was still a black box: no way to
// see retransmit rates, deploy latencies or cache hit ratios without a
// debugger. This registry gives every subsystem named instruments that are
//
//   * cheap on the hot path: each instrument is plain atomic storage, no
//     lock is ever taken after registration (the registry's mutex guards
//     only name -> instrument resolution and snapshotting);
//   * stable: instruments live as long as the registry, so components
//     resolve them once in set_obs() and keep raw pointers;
//   * exportable: Registry::snapshot() returns a MetricsSnapshot that
//     serialises to JSON -- the BENCH_*.json artifacts CI uploads and
//     gates on.
//
// Compiled-out mode: configuring with -DCONGRID_OBS=OFF defines
// CONGRID_OBS_ENABLED=0 and every instrument method below becomes an empty
// inline -- call sites stay, costs vanish, and snapshots are empty but still
// valid JSON (an obs::Count keeps counting; only its registry feed goes).
// Code must therefore never branch on registry values for behaviour.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#ifndef CONGRID_OBS_ENABLED
#define CONGRID_OBS_ENABLED 1
#endif

namespace cg::obs {

/// Monotonic event count. Relaxed atomics: per-metric totals need no
/// ordering against anything else.
class Counter {
 public:
#if CONGRID_OBS_ENABLED
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
#else
  void inc(std::uint64_t = 1) noexcept {}
  std::uint64_t value() const noexcept { return 0; }
#endif
};

/// Point-in-time level (bytes resident, peers up, queue depth).
class Gauge {
 public:
#if CONGRID_OBS_ENABLED
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
#else
  void set(double) noexcept {}
  void add(double) noexcept {}
  double value() const noexcept { return 0.0; }
#endif
};

/// One histogram's exported state; quantiles are estimated by linear
/// interpolation inside the winning bucket.
struct HistogramData {
  std::vector<double> bounds;          ///< upper bounds, ascending
  std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  /// q in [0,1]; returns 0 when empty.
  double quantile(double q) const;
};

/// Fixed-bucket histogram: one atomic increment + one atomic add per
/// observation, bucket found by branch-free-ish linear scan (bucket counts
/// are small, typically <= 16).
class Histogram {
 public:
  /// `bounds` are ascending upper bounds; values above the last bound land
  /// in an implicit overflow bucket. Empty bounds get default_latency_bounds.
  explicit Histogram(std::vector<double> bounds = {});

  void observe(double v) noexcept;
  HistogramData snapshot() const;
  std::uint64_t count() const noexcept;

  /// Exponential seconds scale (1 ms .. 60 s) suited to simulated link and
  /// control-plane latencies.
  static const std::vector<double>& default_latency_bounds();

#if CONGRID_OBS_ENABLED
 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
#endif
};

/// Null-safe instrument handles. Components hold these (default state:
/// unbound, every call a no-op) and bind them in set_obs(); with
/// CONGRID_OBS off they carry no pointer at all and compile to nothing.
class CounterRef {
 public:
  CounterRef() = default;
#if CONGRID_OBS_ENABLED
  /*implicit*/ CounterRef(Counter& c) : c_(&c) {}
  void inc(std::uint64_t n = 1) const noexcept {
    if (c_) c_->inc(n);
  }
  std::uint64_t value() const noexcept { return c_ ? c_->value() : 0; }

 private:
  Counter* c_ = nullptr;
#else
  /*implicit*/ CounterRef(Counter&) {}
  void inc(std::uint64_t = 1) const noexcept {}
  std::uint64_t value() const noexcept { return 0; }
#endif
};

/// One counted fact: the value its owner reads back through stats(), plus
/// the registry counter it feeds once bound. `++` and `+=` bump both, so a
/// component counts each event exactly once and /metrics can never drift
/// from its stats. The binding is the cell's identity, not its value:
/// copies carry the value only (a copied stats struct is a detached
/// snapshot) and assignment keeps the target's binding (resetting stats
/// never unbinds them). `==` compares values, so stats structs keep
/// bit-for-bit operator== oracles. Not atomic: a cell is bumped only on
/// its owner's thread. Exactly one uint64_t under -DCONGRID_OBS=OFF.
class Count {
 public:
  Count() = default;
  Count(const Count& o) noexcept : v_(o.v_) {}
  Count& operator=(const Count& o) noexcept {
    v_ = o.v_;
    return *this;
  }

  Count& operator++() noexcept {
    ++v_;
    ref_.inc();
    return *this;
  }
  Count& operator+=(std::uint64_t n) noexcept {
    v_ += n;
    ref_.inc(n);
    return *this;
  }
  /*implicit*/ operator std::uint64_t() const noexcept { return v_; }
  bool operator==(const Count& o) const noexcept { return v_ == o.v_; }

  /// Feed `c` from now on (earlier counts stay local). Components sharing
  /// a name aggregate into the one registry counter.
  void bind(Counter& c) noexcept { ref_ = c; }

 private:
  std::uint64_t v_ = 0;
  [[no_unique_address]] CounterRef ref_;
};

class GaugeRef {
 public:
  GaugeRef() = default;
#if CONGRID_OBS_ENABLED
  /*implicit*/ GaugeRef(Gauge& g) : g_(&g) {}
  void set(double v) const noexcept {
    if (g_) g_->set(v);
  }
  void add(double d) const noexcept {
    if (g_) g_->add(d);
  }

 private:
  Gauge* g_ = nullptr;
#else
  /*implicit*/ GaugeRef(Gauge&) {}
  void set(double) const noexcept {}
  void add(double) const noexcept {}
#endif
};

class HistogramRef {
 public:
  HistogramRef() = default;
#if CONGRID_OBS_ENABLED
  /*implicit*/ HistogramRef(Histogram& h) : h_(&h) {}
  void observe(double v) const noexcept {
    if (h_) h_->observe(v);
  }

 private:
  Histogram* h_ = nullptr;
#else
  /*implicit*/ HistogramRef(Histogram&) {}
  void observe(double) const noexcept {}
#endif
};

/// Everything a registry knew at one instant; the unit benches dump as
/// BENCH_*.json. Lookup helpers return zero/null for unknown names so test
/// code reads naturally.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramData* histogram(const std::string& name) const;
  /// Quantile of a named histogram; 0 when the name is unknown or empty.
  /// The one extraction path for benches and the HTTP plane alike, so a
  /// dashboard p95 and a BENCH_*.json p95 can never disagree.
  double histogram_quantile(const std::string& name, double q) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Always valid JSON, including from an empty / OBS-off snapshot.
  std::string to_json(bool pretty = true) const;
};

/// Name -> instrument table. Registration and snapshot take a mutex;
/// resolved instruments are updated lock-free. Same name + kind always
/// yields the same instrument, so independent components may share one
/// (e.g. two transports aggregating into unscoped "reliable.retransmits").
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies only on first registration of `name`.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  MetricsSnapshot snapshot() const;

#if CONGRID_OBS_ENABLED
 private:
  mutable std::mutex mu_;
  // Node-based maps: element addresses are stable for the registry's life.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
#endif
};

/// "scope.name", or just "name" when scope is empty. Per-node metric
/// scoping: services pass their peer id, benches a sweep-point label.
std::string scoped(std::string_view scope, std::string_view name);

/// Register every counter of `stats` -- a struct declared with
/// CONGRID_COUNTERS -- as "<scope>.<prefix>.<field>". The one bind call a
/// component's set_obs() makes for its stats.
template <class Stats>
void bind_counters(Registry& registry, std::string_view scope,
                   std::string_view prefix, Stats& stats) {
  const std::string base = scoped(scope, prefix) + '.';
  stats.for_each_counter([&](std::string_view field, Count& c) {
    c.bind(registry.counter(base + std::string(field)));
  });
}

}  // namespace cg::obs

// CONGRID_COUNTERS(a, b, ...) inside a struct declares one obs::Count field
// per name plus for_each_counter(fn), which calls fn("a", a), fn("b", b),
// ... in declaration order. The list is the single declaration of a
// struct's counted facts: bind_counters() and the export-completeness test
// both walk it. One name per line; comments after the commas are fine.
#define CONGRID_COUNTERS(...)                                  \
  CG_OBS_FOR_EACH_(CG_OBS_DECLARE_, __VA_ARGS__)               \
  template <class Fn>                                          \
  void for_each_counter(Fn&& fn) {                             \
    CG_OBS_FOR_EACH_(CG_OBS_VISIT_, __VA_ARGS__)               \
  }                                                            \
  template <class Fn>                                          \
  void for_each_counter(Fn&& fn) const {                       \
    CG_OBS_FOR_EACH_(CG_OBS_VISIT_, __VA_ARGS__)               \
  }

#define CG_OBS_DECLARE_(field) ::cg::obs::Count field;
#define CG_OBS_VISIT_(field) fn(#field, field);
// Preprocessor for-each (C++20 __VA_OPT__); the rescans cover at least 64
// names per list.
#define CG_OBS_FOR_EACH_(m, ...) \
  __VA_OPT__(CG_OBS_EXPAND3_(CG_OBS_STEP_(m, __VA_ARGS__)))
#define CG_OBS_STEP_(m, field, ...) \
  m(field) __VA_OPT__(CG_OBS_AGAIN_ CG_OBS_PARENS_(m, __VA_ARGS__))
#define CG_OBS_AGAIN_() CG_OBS_STEP_
#define CG_OBS_PARENS_ ()
#define CG_OBS_EXPAND3_(...) \
  CG_OBS_EXPAND2_(CG_OBS_EXPAND2_(CG_OBS_EXPAND2_(CG_OBS_EXPAND2_(__VA_ARGS__))))
#define CG_OBS_EXPAND2_(...) \
  CG_OBS_EXPAND1_(CG_OBS_EXPAND1_(CG_OBS_EXPAND1_(CG_OBS_EXPAND1_(__VA_ARGS__))))
#define CG_OBS_EXPAND1_(...) \
  CG_OBS_EXPAND0_(CG_OBS_EXPAND0_(CG_OBS_EXPAND0_(CG_OBS_EXPAND0_(__VA_ARGS__))))
#define CG_OBS_EXPAND0_(...) __VA_ARGS__
