// Tests for the phi-accrual failure detector: suspicion grows with
// silence, adapts to observed jitter, and distinguishes heartbeat
// (interval-recording) from touch (evidence-only) liveness.
#include <gtest/gtest.h>

#include <cmath>

#include "net/failure_detector.hpp"

namespace cg::core {
namespace {

TEST(FailureDetector, SilentBeforeAnyHeartbeat) {
  net::PhiAccrualDetector d;
  EXPECT_EQ(d.samples(), 0u);
  EXPECT_DOUBLE_EQ(d.phi(100.0), 0.0);
}

TEST(FailureDetector, PhiGrowsMonotonicallyWithSilence) {
  net::PhiAccrualDetector d;
  for (int i = 0; i <= 10; ++i) d.heartbeat(2.0 * i);  // steady 2 s cadence
  EXPECT_EQ(d.samples(), 10u);

  double prev = d.phi(20.0);
  EXPECT_DOUBLE_EQ(prev, 0.0);  // no silence yet
  for (double t = 22.0; t <= 40.0; t += 2.0) {
    const double cur = d.phi(t);
    EXPECT_GE(cur, prev) << "phi must not decrease during silence at " << t;
    prev = cur;
  }
  EXPECT_GT(d.phi(30.0), 8.0);  // 10 s of silence on a 2 s cadence: dead
}

TEST(FailureDetector, PhiKeepsGrowingPastErfcUnderflow) {
  net::PhiAccrualDetector d;
  for (int i = 0; i <= 5; ++i) d.heartbeat(1.0 * i);
  // Deep into the asymptotic branch: phi must still be finite, huge, and
  // increasing (no saturation at the double floor).
  const double a = d.phi(100.0);
  const double b = d.phi(200.0);
  EXPECT_GT(a, 100.0);
  EXPECT_GT(b, a);
  EXPECT_TRUE(std::isfinite(b));
}

TEST(FailureDetector, JitteryHistoryEarnsMorePatience) {
  net::PhiAccrualDetector steady, jittery;
  double t1 = 0.0, t2 = 0.0;
  for (int i = 0; i < 16; ++i) {
    t1 += 2.0;
    steady.heartbeat(t1);
    t2 += (i % 2 == 0) ? 0.5 : 3.5;  // same mean, large deviation
    jittery.heartbeat(t2);
  }
  // After the same absolute silence, the jittery link is less suspicious.
  const double gap = 6.0;
  EXPECT_GT(steady.phi(t1 + gap), jittery.phi(t2 + gap));
}

TEST(FailureDetector, TouchDefersSuspicionWithoutRecordingIntervals) {
  net::PhiAccrualDetector d;
  for (int i = 0; i <= 8; ++i) d.heartbeat(2.0 * i);  // last heartbeat at 16
  const std::size_t samples_before = d.samples();

  // Data-plane traffic keeps arriving long past the probe cadence.
  for (double t = 17.0; t <= 30.0; t += 1.0) d.touch(t);
  EXPECT_EQ(d.samples(), samples_before);  // no interval pollution
  EXPECT_LT(d.phi(31.0), 3.0);             // evidence is fresh: not suspect
  EXPECT_GT(d.phi(40.0), 8.0);             // 10 s after last touch: dead
}

TEST(FailureDetector, MinStdFloorPreventsHairTrigger) {
  net::FailureDetectorOptions o;
  o.min_std_s = 1.0;
  net::PhiAccrualDetector d(o);
  for (int i = 0; i <= 10; ++i) d.heartbeat(2.0 * i);  // zero observed jitter
  // One interval of extra silence is only ~2 sigma under the floor.
  EXPECT_LT(d.phi(24.0), 3.0);
}

TEST(FailureDetector, ResetForgetsEverything) {
  net::PhiAccrualDetector d;
  for (int i = 0; i <= 5; ++i) d.heartbeat(2.0 * i);
  d.reset();
  EXPECT_EQ(d.samples(), 0u);
  EXPECT_DOUBLE_EQ(d.phi(1000.0), 0.0);
  d.heartbeat(1000.0);  // usable again after reset
  d.heartbeat(1002.0);
  EXPECT_EQ(d.samples(), 1u);
}

TEST(FailureDetector, WindowSlidesOldSamplesOut) {
  net::FailureDetectorOptions o;
  o.window = 4;
  net::PhiAccrualDetector d(o);
  double t = 0.0;
  for (int i = 0; i < 8; ++i) d.heartbeat(t += 10.0);  // slow cadence
  for (int i = 0; i < 8; ++i) d.heartbeat(t += 1.0);   // now fast
  EXPECT_EQ(d.samples(), 4u);
  // The slow history has been evicted: 5 s of silence on a 1 s cadence is
  // very suspicious.
  EXPECT_GT(d.phi(t + 5.0), 8.0);
}

}  // namespace
}  // namespace cg::core
