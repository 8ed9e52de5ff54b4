// Self-tests of the benchmark harness: order statistics, the percentile
// rule, the span tree, and that a delay injected behind one decorator lands
// in that layer's self time and in no other.
//
//   ctest --test-dir .bench_build/perfbench   (or run perfbench_selftest)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "core/unit/builtin.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "traced.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

void test_quartiles_match_python() {
  // Expected values from statistics.quantiles(data, n=4).
  auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  CHECK(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25));
  q = quartiles({3.0, 1.0});
  CHECK(near(q[0], 0.5) && near(q[1], 2.0) && near(q[2], 3.5));
  q = quartiles({5, 1, 4, 2, 3});
  CHECK(near(q[0], 1.5) && near(q[1], 3.0) && near(q[2], 4.5));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
  CHECK(near(median({7}), 7.0));
  CHECK(near(median({}), 0.0));
  CHECK(near(iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5));
  CHECK(near(percentile({10, 20, 30, 40, 50}, 50), 30.0));
  CHECK(near(percentile({10, 20, 30, 40, 50}, 90), 46.0));
}

void test_highest_supported_percentile() {
  const double cands[] = {50, 90, 95, 99, 99.9};
  CHECK(highest_supported_percentile(100, cands) == 90.0);
  CHECK(highest_supported_percentile(99, cands) == 50.0);
  CHECK(highest_supported_percentile(200, cands) == 95.0);
  CHECK(highest_supported_percentile(1000, cands) == 99.0);
  CHECK(highest_supported_percentile(10000, cands) == 99.9);
  CHECK(!highest_supported_percentile(19, cands).has_value());
  CHECK(highest_supported_percentile(20, cands) == 50.0);
}

void test_spans_form_a_tree() {
  SpanRecorder rec;
  for (int op = 0; op < 3; ++op) {
    const std::uint32_t root = rec.begin_op("engine.tick");
    {
      ScopedSpan a(&rec, "gw.strain");
      sleep_ms(1);
    }
    // Children on other threads hang off the published operation root.
    std::thread t1([&] { ScopedSpan s(&rec, "dsp"); sleep_ms(2); });
    std::thread t2([&] {
      ScopedSpan s(&rec, "dsp");
      ScopedSpan inner(&rec, "dsp.inner");
      sleep_ms(1);
    });
    t1.join();
    t2.join();
    rec.end_op(root);
  }
  { ScopedSpan lone(&rec, "net.send"); }  // an operation of its own
  const auto spans = rec.spans();
  CHECK(check_tree(spans).empty());
  std::size_t roots = 0;
  for (const Span& s : spans) roots += s.parent == 0;
  CHECK(roots == 4);
  for (const Span& s : spans) {
    if (s.layer == "dsp.inner") CHECK(spans[s.parent - 1].layer == "dsp");
    if (s.layer == "dsp") CHECK(spans[s.parent - 1].layer == "engine.tick");
  }
  // Parallel children are not double-subtracted: the tick's self time is
  // the part of it no child covered, never negative.
  const auto self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) CHECK(self[i] >= 0.0);

  // A child escaping its parent, and an operation with two roots, are
  // both reported.
  std::vector<Span> bad = spans;
  bad[1].end = bad[0].end + 1.0;
  CHECK(!check_tree(bad).empty());
  std::vector<Span> two_roots = {Span{1, 0, 1, "a", "", 0, 1, 0},
                                 Span{2, 0, 1, "b", "", 0, 1, 0}};
  CHECK(!check_tree(two_roots).empty());
}

/// A transport double: send() sleeps for a settable delay, deliver() hands
/// a frame to whatever handler was installed.
class SlowTransport final : public cg::net::Transport {
 public:
  double send_delay_ms = 0.0;
  cg::net::Endpoint local() const override { return {"slow"}; }
  void send(const cg::net::Endpoint&, cg::serial::Frame) override {
    sleep_ms(send_delay_ms);
  }
  void set_handler(cg::net::FrameHandler h) override { handler_ = std::move(h); }
  std::size_t poll() override { return 0; }
  void deliver(cg::serial::Frame f) { handler_({"peer"}, std::move(f)); }

 private:
  cg::net::FrameHandler handler_;
};

/// A unit whose configure() sleeps for a settable delay.
class SlowUnit final : public cg::core::Unit {
 public:
  static double delay_ms;
  const cg::core::UnitInfo& info() const override {
    static const cg::core::UnitInfo i = [] {
      cg::core::UnitInfo u;
      u.type_name = "Slow";
      return u;
    }();
    return i;
  }
  void configure(const cg::core::ParamSet&) override { sleep_ms(delay_ms); }
  void process(cg::core::ProcessContext&) override {}
};
double SlowUnit::delay_ms = 0.0;

/// One "pump": a delivered frame whose handler configures a unit, sends a
/// reply and schedules a timer that sends again. Returns self time per
/// layer prefix.
std::map<std::string, double> pump_once(double unit_ms, double send_ms) {
  SpanRecorder rec;
  SlowTransport raw;
  raw.send_delay_ms = send_ms;
  TracedTransport tt(raw, rec);
  std::vector<std::function<void()>> timers;
  const cg::net::Scheduler sched = traced_scheduler(
      [&timers](double, std::function<void()> fn) {
        timers.push_back(std::move(fn));
      },
      rec);
  SlowUnit::delay_ms = unit_ms;
  TimedUnit unit(std::make_unique<SlowUnit>(), rec, "galaxy", "galaxy.config");
  cg::serial::Frame reply;
  reply.type = cg::serial::FrameType::kData;
  reply.payload.assign(16, 0);
  tt.set_handler([&](const cg::net::Endpoint& from, cg::serial::Frame) {
    sleep_ms(1);  // the service's own work
    unit.configure({});
    tt.send(from, reply);
    sched(0.0, [&] { tt.send({"peer"}, reply); });
  });
  const std::uint32_t op = rec.begin_op("net.pump");
  raw.deliver(reply);
  for (auto& t : timers) t();
  rec.end_op(op);

  const auto spans = rec.spans();
  CHECK(check_tree(spans).empty());
  bool timer_labelled = false;
  for (const Span& s : spans) {
    if (s.layer == "timer") timer_labelled = s.kind == "data";
  }
  CHECK(timer_labelled);
  const auto self = self_times(spans);
  std::map<std::string, double> by;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by[spans[i].layer] += self[i];
  }
  return by;
}

void test_injected_delay_lands_in_one_layer() {
  const auto base = pump_once(0.0, 0.0);
  const auto slow_send = pump_once(0.0, 15.0);
  const auto slow_unit = pump_once(25.0, 0.0);
  const double tol = 0.004;  // scheduler noise allowance, seconds
  // Two sends each pay 15 ms: 30 ms in net.send, nothing elsewhere.
  CHECK(std::fabs(slow_send.at("net.send") - base.at("net.send") - 0.030) < 0.008);
  for (const char* l : {"galaxy.config", "service.handler", "timer", "net.pump"}) {
    CHECK(std::fabs(slow_send.at(l) - base.at(l)) < tol);
  }
  CHECK(std::fabs(slow_unit.at("galaxy.config") - base.at("galaxy.config") - 0.025) < tol);
  for (const char* l : {"net.send", "service.handler", "timer", "net.pump"}) {
    CHECK(std::fabs(slow_unit.at(l) - base.at(l)) < tol);
  }
}

}  // namespace

int main() {
  test_quartiles_match_python();
  test_highest_supported_percentile();
  test_spans_form_a_tree();
  test_injected_delay_lands_in_one_layer();
  if (g_failures) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
