// Tests for the reliable request/reply layer: ack/retransmit/backoff
// behaviour, receiver-side duplicate suppression, expiry reporting, the
// passthrough policy, and determinism of the whole machine.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/backend.hpp"
#include "net/reliable.hpp"

namespace cg::net {
namespace {

serial::Frame text_frame(const std::string& s,
                         serial::FrameType t = serial::FrameType::kControl) {
  serial::Frame f;
  f.type = t;
  f.payload = serial::to_bytes(s);
  return f;
}

/// Two reliable endpoints over one SimBackend (node 0 = a, node 1 = b).
struct ReliablePair {
  explicit ReliablePair(LinkParams p = {}, std::uint64_t seed = 1,
                        ReliableConfig cfg = {})
      : be(p, seed),
        ta(be.add_node()),
        tb(be.add_node()),
        a(ta, be.clock(), be.scheduler(), cfg),
        b(tb, be.clock(), be.scheduler(), cfg) {}

  SimBackend be;
  Transport& ta;
  Transport& tb;
  ReliableTransport a;
  ReliableTransport b;
};

TEST(Reliable, CleanLinkDeliversOnceAndAcks) {
  ReliablePair pair;
  std::vector<std::string> got;
  pair.b.set_handler([&](const Endpoint& from, serial::Frame f) {
    EXPECT_EQ(from, pair.ta.local());
    EXPECT_EQ(f.type, serial::FrameType::kControl);
    got.push_back(serial::to_string(f.payload));
  });

  pair.a.send(pair.tb.local(), text_frame("deploy"));
  pair.be.run_until(60.0);

  EXPECT_EQ(got, (std::vector<std::string>{"deploy"}));
  EXPECT_EQ(pair.a.stats().sent, 1u);
  EXPECT_EQ(pair.a.stats().acked, 1u);
  EXPECT_EQ(pair.a.stats().retransmits, 0u);
  EXPECT_EQ(pair.a.stats().expired, 0u);
  EXPECT_EQ(pair.a.in_flight(), 0u);
  EXPECT_EQ(pair.b.stats().delivered, 1u);
  EXPECT_EQ(pair.b.stats().acks_sent, 1u);
  EXPECT_EQ(pair.b.stats().dedup_hits, 0u);
}

TEST(Reliable, TruncatedEnvelopeIsDroppedAndCounted) {
  ReliablePair pair;
  int delivered = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++delivered; });
  // Straight onto b's wire, one byte short of an envelope header.
  serial::Frame bad;
  bad.type = serial::FrameType::kReliable;
  bad.payload.assign(32, 0);
  pair.ta.send(pair.tb.local(), std::move(bad));
  pair.be.run_until(1.0);
  EXPECT_EQ(pair.b.stats().malformed_dropped, 1u);
  EXPECT_EQ(pair.b.stats().delivered, 0u);
  EXPECT_EQ(pair.b.stats().acks_sent, 0u);
  EXPECT_EQ(delivered, 0);
}

TEST(Reliable, RetransmitsUntilDelivered) {
  ReliablePair pair;
  // Drop the first two reliable envelopes on the wire; retransmissions get
  // through.
  int reliable_seen = 0;
  pair.be.net().set_fault_fn([&](std::uint32_t, std::uint32_t,
                            const serial::Frame& f) {
    FaultAction act;
    if (f.type == serial::FrameType::kReliable && reliable_seen++ < 2) {
      act.drop = true;
    }
    return act;
  });

  int got = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
  pair.a.send(pair.tb.local(), text_frame("try-try-again"));
  pair.be.run_until(60.0);

  EXPECT_EQ(got, 1);
  EXPECT_EQ(pair.a.stats().retransmits, 2u);
  EXPECT_EQ(pair.a.stats().acked, 1u);
  EXPECT_EQ(pair.b.stats().delivered, 1u);
  EXPECT_EQ(pair.a.in_flight(), 0u);
}

TEST(Reliable, BackoffGrowsTheRetryInterval) {
  ReliableConfig cfg;
  cfg.jitter_frac = 0.0;  // exact intervals
  ReliablePair exact({}, 1, cfg);
  // Record when each copy of the envelope hits the wire; never deliver, so
  // the full retry ladder is observable.
  std::vector<double> at;
  exact.be.net().set_fault_fn([&](std::uint32_t, std::uint32_t,
                             const serial::Frame& f) {
    FaultAction act;
    if (f.type == serial::FrameType::kReliable) {
      at.push_back(exact.be.now());
      act.drop = true;
    }
    return act;
  });
  exact.a.send(exact.tb.local(), text_frame("x"));
  exact.be.run_until(120.0);

  ASSERT_GE(at.size(), 4u);
  const double gap1 = at[1] - at[0];
  const double gap2 = at[2] - at[1];
  const double gap3 = at[3] - at[2];
  EXPECT_NEAR(gap1, exact.a.config().rto_initial_s, 1e-9);
  EXPECT_NEAR(gap2, gap1 * exact.a.config().backoff, 1e-9);
  EXPECT_NEAR(gap3, gap2 * exact.a.config().backoff, 1e-9);
}

TEST(Reliable, DuplicatedEnvelopeIsSuppressedAndReAcked) {
  ReliablePair pair;
  // Deliver every reliable envelope twice.
  pair.be.net().set_fault_fn([](std::uint32_t, std::uint32_t,
                           const serial::Frame& f) {
    FaultAction act;
    if (f.type == serial::FrameType::kReliable) act.duplicates = 1;
    return act;
  });

  int got = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
  pair.a.send(pair.tb.local(), text_frame("once-only"));
  pair.be.run_until(60.0);

  EXPECT_EQ(got, 1);  // the application saw it exactly once
  EXPECT_EQ(pair.b.stats().delivered, 1u);
  EXPECT_EQ(pair.b.stats().dedup_hits, 1u);
  EXPECT_EQ(pair.b.stats().acks_sent, 2u);  // both copies acked
  EXPECT_EQ(pair.a.stats().acked, 1u);      // extra ack ignored
  EXPECT_EQ(pair.a.in_flight(), 0u);
}

TEST(Reliable, LostAckProvokesRetransmitNotDuplicateDelivery) {
  ReliablePair pair;
  int acks_seen = 0;
  pair.be.net().set_fault_fn([&](std::uint32_t, std::uint32_t,
                            const serial::Frame& f) {
    FaultAction act;
    if (f.type == serial::FrameType::kAck && acks_seen++ == 0) {
      act.drop = true;  // lose only the first ack
    }
    return act;
  });

  int got = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
  pair.a.send(pair.tb.local(), text_frame("ack-me-twice"));
  pair.be.run_until(60.0);

  EXPECT_EQ(got, 1);
  EXPECT_GE(pair.a.stats().retransmits, 1u);
  EXPECT_EQ(pair.a.stats().acked, 1u);
  EXPECT_EQ(pair.b.stats().dedup_hits,
            pair.a.stats().retransmits);
}

TEST(Reliable, ExpiryFiresDropHandlerWithOriginalFrame) {
  ReliableConfig cfg;
  cfg.deadline_s = 3.0;
  cfg.max_retries = 2;
  ReliablePair pair({}, 1, cfg);
  pair.be.set_up(1, false);  // receiver is gone for good

  int dropped = 0;
  pair.a.set_drop_handler([&](const Endpoint& to, const serial::Frame& f) {
    ++dropped;
    EXPECT_EQ(to, pair.tb.local());
    EXPECT_EQ(f.type, serial::FrameType::kControl);
    EXPECT_EQ(serial::to_string(f.payload), "doomed");
  });

  pair.a.send(pair.tb.local(), text_frame("doomed"));
  pair.be.run_until(120.0);

  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(pair.a.stats().expired, 1u);
  EXPECT_EQ(pair.a.stats().acked, 0u);
  EXPECT_EQ(pair.a.in_flight(), 0u);
}

TEST(Reliable, HeartbeatsPassThroughByDefault) {
  ReliablePair pair;
  std::vector<serial::FrameType> got;
  pair.b.set_handler([&](const Endpoint&, serial::Frame f) {
    got.push_back(f.type);
  });

  pair.a.send(pair.tb.local(),
              text_frame("alive", serial::FrameType::kHeartbeat));
  pair.a.send(pair.tb.local(), text_frame("cmd"));
  pair.be.run_until(60.0);

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(pair.a.stats().passthrough_sent, 1u);
  EXPECT_EQ(pair.a.stats().sent, 1u);
  EXPECT_EQ(pair.b.stats().passthrough_delivered, 1u);
  EXPECT_EQ(pair.b.stats().delivered, 1u);
}

TEST(Reliable, CustomPolicySelectsFrameTypes) {
  ReliableConfig cfg;
  cfg.reliable_type = [](serial::FrameType t) {
    return t == serial::FrameType::kControl;
  };
  ReliablePair pair({}, 1, cfg);
  int got = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });

  pair.a.send(pair.tb.local(), text_frame("data", serial::FrameType::kData));
  pair.a.send(pair.tb.local(), text_frame("ctrl"));
  pair.be.run_until(60.0);

  EXPECT_EQ(got, 2);
  EXPECT_EQ(pair.a.stats().passthrough_sent, 1u);
  EXPECT_EQ(pair.a.stats().sent, 1u);
}

TEST(Reliable, DedupWindowEvictsOldestIds) {
  ReliableConfig cfg;
  cfg.dedup_window = 4;
  ReliablePair pair({}, 1, cfg);
  int got = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });

  for (int i = 0; i < 10; ++i) {
    pair.a.send(pair.tb.local(), text_frame("m" + std::to_string(i)));
  }
  pair.be.run_until(60.0);
  EXPECT_EQ(got, 10);  // eviction never suppresses fresh ids
  EXPECT_EQ(pair.b.stats().dedup_hits, 0u);
}

TEST(Reliable, CorruptionBehavesLikeLoss) {
  ReliablePair pair;
  int reliable_seen = 0;
  pair.be.net().set_fault_fn([&](std::uint32_t, std::uint32_t,
                            const serial::Frame& f) {
    FaultAction act;
    if (f.type == serial::FrameType::kReliable && reliable_seen++ == 0) {
      act.corrupt = true;  // first copy arrives mangled
    }
    return act;
  });

  int got = 0;
  pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
  pair.a.send(pair.tb.local(), text_frame("integrity"));
  pair.be.run_until(60.0);

  EXPECT_EQ(got, 1);
  EXPECT_EQ(pair.be.net().stats().messages_corrupt_rejected, 1u);
  EXPECT_GE(pair.a.stats().retransmits, 1u);
  EXPECT_EQ(pair.b.stats().delivered, 1u);
}

TEST(Reliable, DeterministicStatsUnderLossySeed) {
  auto run = [] {
    ReliablePair pair({}, 99);
    FaultPlan plan;
    plan.default_link.drop = 0.3;
    pair.be.arm_faults(plan, 99);
    int got = 0;
    pair.b.set_handler([&](const Endpoint&, serial::Frame) { ++got; });
    for (int i = 0; i < 50; ++i) {
      pair.a.send(pair.tb.local(), text_frame("m" + std::to_string(i)));
    }
    pair.be.run_until(300.0);
    EXPECT_EQ(got, 50);
    return std::make_pair(pair.a.stats(), pair.b.stats());
  };
  auto [a1, b1] = run();
  auto [a2, b2] = run();
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
  EXPECT_GT(a1.retransmits, 0u);  // 30% loss must have caused retries
}

}  // namespace
}  // namespace cg::net
