// Simulator semantics: determinism, delivery bounds, crash injection,
// metrics accounting, liveness guard.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "net/envelope.hpp"
#include "net/sim.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa::net {
namespace {

Bytes tiny_payload(std::uint8_t b) {
  ByteWriter w;
  w.put_u8(b);
  return std::move(w).take();
}

/// Echo process: multicasts one message at start; counts deliveries; outputs
/// once it has heard from everyone else.
class EchoProcess final : public Process {
 public:
  void on_start(Context& ctx) override { ctx.multicast(tiny_payload(1)); }

  void on_message(Context& ctx, ProcessId from, BytesView payload) override {
    (void)from;
    (void)payload;
    ++heard_;
    if (heard_ >= ctx.params().n - 1) out_ = static_cast<double>(heard_);
  }

  [[nodiscard]] bool has_output() const override { return out_.has_value(); }
  [[nodiscard]] std::optional<std::vector<double>> vector_output() const override {
    if (!out_) return std::nullopt;
    return std::vector<double>{*out_};
  }

  std::uint32_t heard_ = 0;
  std::optional<double> out_;
};

SimNetwork make_echo_net(SystemParams p, std::uint64_t seed = 1) {
  SimNetwork net(p, std::make_unique<sched::RandomScheduler>(seed));
  for (std::uint32_t i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<EchoProcess>());
  }
  return net;
}

TEST(SimNetwork, AllToAllDelivery) {
  auto net = make_echo_net({4, 1});
  net.start();
  EXPECT_EQ(net.run(), RunStatus::kQueueDrained);
  EXPECT_TRUE(net.all_correct_output());
  EXPECT_EQ(net.metrics().messages_sent, 4u * 3u);
  EXPECT_EQ(net.metrics().messages_delivered, 4u * 3u);
}

TEST(SimNetwork, DeterministicReplay) {
  struct Outcome {
    double now;
    std::vector<std::vector<double>> outputs;
    std::uint64_t delivered;
  };
  auto run_once = [](std::uint64_t seed, bool duplicate) {
    auto net = make_echo_net({6, 1}, seed);
    if (duplicate) net.enable_duplication(0.5, seed + 1000);
    net.start();
    net.run();
    return Outcome{net.now(), net.correct_vector_outputs(),
                   net.metrics().messages_delivered};
  };
  for (const bool duplicate : {false, true}) {
    SCOPED_TRACE(duplicate ? "duplication on" : "duplication off");
    const Outcome a = run_once(77, duplicate);
    const Outcome b = run_once(77, duplicate);
    EXPECT_EQ(a.now, b.now);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_NE(a.now, run_once(78, duplicate).now);
  }
  // Duplication really happened: more deliveries than the 6 * 5 sends.
  EXPECT_GT(run_once(77, true).delivered, 6u * 5u);
}

TEST(SimNetwork, DelaysRespectDelta) {
  // With all messages sent at time 0, everything arrives by Delta = 1.
  auto net = make_echo_net({5, 1});
  net.start();
  net.run();
  EXPECT_LE(net.now(), 1.0);
  EXPECT_GT(net.now(), 0.0);
}

TEST(SimNetwork, CrashAtStartupSilencesParty) {
  auto net = make_echo_net({4, 1});
  net.crash_after_sends(0, 0);
  net.start();
  net.run();
  EXPECT_EQ(net.status(0), PartyStatus::kCrashed);
  // The three live parties sent 3 messages each.
  EXPECT_EQ(net.metrics().messages_sent, 9u);
  // Correct parties heard from 2 others only -> no output (they wait for 3).
  EXPECT_FALSE(net.all_correct_output());
}

TEST(SimNetwork, PartialMulticastCrash) {
  auto net = make_echo_net({5, 1});
  // Party 0 crashes after 2 sends of its 4-message multicast.
  net.crash_after_sends(0, 2);
  net.start();
  net.run();
  EXPECT_EQ(net.status(0), PartyStatus::kCrashed);
  EXPECT_EQ(net.metrics().sent_by[0], 2u);
}

TEST(SimNetwork, MulticastOrderControlsSurvivors) {
  auto net = make_echo_net({5, 1});
  net.set_multicast_order(0, {3, 4, 1, 2});
  net.crash_after_sends(0, 2);  // only 3 and 4 get party 0's message
  net.start();
  net.run();
  const auto& p3 = dynamic_cast<const EchoProcess&>(net.process(3));
  const auto& p1 = dynamic_cast<const EchoProcess&>(net.process(1));
  EXPECT_EQ(p3.heard_, 4);  // everyone including 0
  EXPECT_EQ(p1.heard_, 3);  // missed 0
}

TEST(SimNetwork, CrashedReceiverDropsDeliveries) {
  auto net = make_echo_net({4, 1});
  net.crash_at_time(2, 0.0);
  net.start();
  net.run();
  const auto& p2 = dynamic_cast<const EchoProcess&>(net.process(2));
  EXPECT_EQ(p2.heard_, 0);
}

TEST(SimNetwork, RunUntilPredicate) {
  auto net = make_echo_net({4, 1});
  net.start();
  const auto st = net.run_until(
      [&net]() { return net.metrics().messages_delivered >= 3; });
  EXPECT_EQ(st, RunStatus::kPredicateSatisfied);
  EXPECT_GE(net.metrics().messages_delivered, 3u);
  EXPECT_LT(net.metrics().messages_delivered, 12u);
}

TEST(SimNetwork, BudgetExhaustionDetected) {
  /// Ping-pong forever between two parties.
  class PingPong final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() == 0) ctx.send(1, tiny_payload(0));
    }
    void on_message(Context& ctx, ProcessId from, BytesView) override {
      ctx.send(from, tiny_payload(0));
    }
  };
  SimNetwork net({2, 0}, std::make_unique<sched::FifoScheduler>());
  net.add_process(std::make_unique<PingPong>());
  net.add_process(std::make_unique<PingPong>());
  net.start();
  EXPECT_EQ(net.run(1000), RunStatus::kBudgetExhausted);
}

TEST(SimNetwork, SelfSendRejected) {
  class SelfSender final : public Process {
   public:
    void on_start(Context& ctx) override { ctx.send(ctx.self(), Bytes{}); }
    void on_message(Context&, ProcessId, BytesView) override {}
  };
  SimNetwork net({2, 0}, std::make_unique<sched::FifoScheduler>());
  net.add_process(std::make_unique<SelfSender>());
  net.add_process(std::make_unique<EchoProcess>());
  EXPECT_THROW(net.start(), std::invalid_argument);
}

TEST(SimNetwork, ConfigValidation) {
  EXPECT_THROW(SimNetwork({0, 0}, std::make_unique<sched::FifoScheduler>()),
               std::invalid_argument);
  EXPECT_THROW(SimNetwork({3, 3}, std::make_unique<sched::FifoScheduler>()),
               std::invalid_argument);
  SimNetwork net({2, 0}, std::make_unique<sched::FifoScheduler>());
  net.add_process(std::make_unique<EchoProcess>());
  EXPECT_THROW(net.start(), std::invalid_argument);  // missing processes
}

TEST(SimNetwork, ByzantineMarkExcludedFromCorrect) {
  auto net = make_echo_net({4, 1});
  net.mark_byzantine(3);
  net.start();
  net.run();
  EXPECT_EQ(net.status(3), PartyStatus::kByzantine);
  EXPECT_FALSE(net.is_correct(3));
  EXPECT_EQ(net.correct_vector_outputs().size(), 3u);
}

TEST(SimNetwork, OutputTimeRecorded) {
  auto net = make_echo_net({4, 1});
  net.start();
  net.run();
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_GT(net.output_time(p), 0.0);
    EXPECT_LE(net.output_time(p), 1.0);
  }
}

TEST(SimNetwork, PayloadBytesAccounted) {
  auto net = make_echo_net({3, 1});
  net.start();
  net.run();
  // 6 messages of 1 byte each.
  EXPECT_EQ(net.metrics().payload_bytes, 6u);
  EXPECT_EQ(net.metrics().payload_bits(), 48u);
}

// --- send batching & logical-message accounting ------------------------------

/// Multiplexing stand-in: multicasts one enveloped frame per "instance" at
/// start, back to back — exactly the burst a session router produces.
class BurstProcess final : public Process {
 public:
  explicit BurstProcess(std::uint32_t instances) : instances_(instances) {}

  void on_start(Context& ctx) override {
    for (std::uint32_t i = 0; i < instances_; ++i) {
      ctx.multicast(encode_envelope(i, tiny_payload(1)));
    }
  }

  void on_message(Context&, ProcessId, BytesView payload) override {
    // The network hands over logical frames, not packets: count only
    // well-formed single envelopes (a junk forgery arrives as one opaque
    // delivery and is ignored, never split or crashed on).
    if (decode_envelope(payload).has_value()) ++heard_;
  }

  std::uint32_t instances_;
  std::uint32_t heard_ = 0;
};

TEST(SimBatching, PacksBurstsAndCountsLogicalMessages) {
  const SystemParams p{3, 1};
  SimNetwork net(p, std::make_unique<sched::RandomScheduler>(1));
  for (std::uint32_t i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<BurstProcess>(kMaxBatchFrames));
  }
  net.enable_batching(kMaxBatchFrames);
  net.start();
  net.run();
  // Logical counts are batching-invariant: n senders x 8 frames x (n-1).
  const std::uint64_t logical = 3u * kMaxBatchFrames * 2u;
  EXPECT_EQ(net.metrics().messages_sent, logical);
  EXPECT_EQ(net.metrics().messages_delivered, logical);
  // Each sender's 8-frame burst to each destination packed into ONE packet.
  EXPECT_EQ(net.metrics().packets_sent, 3u * 2u);
  EXPECT_EQ(net.metrics().msgs_per_packet(),
            static_cast<double>(kMaxBatchFrames));
  // Per-instance attribution survives the batch framing.
  ASSERT_EQ(net.metrics().sent_by_instance.size(), kMaxBatchFrames);
  for (std::uint32_t i = 0; i < kMaxBatchFrames; ++i) {
    EXPECT_EQ(net.metrics().sent_by_instance[i], 3u * 2u);
  }
  // Every frame reached every peer.
  for (ProcessId q = 0; q < p.n; ++q) {
    EXPECT_EQ(dynamic_cast<const BurstProcess&>(net.process(q)).heard_,
              kMaxBatchFrames * 2u);
  }
}

TEST(SimBatching, SingleFrameFlushesAsRawPacket) {
  // One frame in the buffer at flush time goes out unframed: a batched run
  // of single-message upcalls has the same wire bytes as an unbatched one.
  auto unbatched = make_echo_net({4, 1});
  unbatched.start();
  unbatched.run();
  auto batched = make_echo_net({4, 1});
  batched.enable_batching(8);
  batched.start();
  batched.run();
  EXPECT_EQ(batched.metrics().payload_bytes, unbatched.metrics().payload_bytes);
  EXPECT_EQ(batched.metrics().packets_sent, batched.metrics().messages_sent);
  EXPECT_EQ(batched.metrics().msgs_per_packet(), 1.0);
}

TEST(SimBatching, CrashBudgetCountsLogicalSendsNotPackets) {
  const SystemParams p{3, 1};
  SimNetwork net(p, std::make_unique<sched::RandomScheduler>(1));
  for (std::uint32_t i = 0; i < p.n; ++i) {
    net.add_process(std::make_unique<BurstProcess>(4));
  }
  net.enable_batching(8);
  // Party 0's burst is 4 frames x 2 destinations = 8 logical sends, but with
  // batching it would be only 2 packets.  A budget of 3 must count FRAMES:
  // m0->1, m0->2, m1->1 go out, the 4th frame fires the crash.
  net.crash_after_sends(0, 3);
  net.start();
  net.run();
  EXPECT_EQ(net.status(0), PartyStatus::kCrashed);
  EXPECT_EQ(net.metrics().sent_by[0], 3u);
  EXPECT_EQ(net.metrics().messages_dropped, 5u);
  // The pre-crash buffered frames still flush: party 1 heard both of party
  // 0's frames addressed to it, party 2 heard one (plus the full burst of
  // the surviving peer).
  EXPECT_EQ(dynamic_cast<const BurstProcess&>(net.process(1)).heard_, 2u + 4u);
  EXPECT_EQ(dynamic_cast<const BurstProcess&>(net.process(2)).heard_, 1u + 4u);
}

TEST(SimBatching, ForgedBatchFrameBypassesPackingHarmlessly) {
  /// A byzantine sender emitting bytes that LOOK like a batch packet: the
  /// transport must not nest it into another batch, and honest receivers
  /// treat it as one junk delivery.
  class Forger final : public Process {
   public:
    void on_start(Context& ctx) override {
      Bytes junk{static_cast<std::byte>(kBatchTag), static_cast<std::byte>(7)};
      ctx.multicast(junk);
    }
    void on_message(Context&, ProcessId, BytesView) override {}
  };
  const SystemParams p{3, 1};
  SimNetwork net(p, std::make_unique<sched::RandomScheduler>(1));
  net.add_process(std::make_unique<Forger>());
  net.add_process(std::make_unique<BurstProcess>(2));
  net.add_process(std::make_unique<BurstProcess>(2));
  net.mark_byzantine(0);
  net.enable_batching(8);
  net.start();
  net.run();
  // The forged frame went out as its own packet (never nested), and every
  // honest frame still arrived.
  EXPECT_EQ(dynamic_cast<const BurstProcess&>(net.process(1)).heard_, 2u);
  EXPECT_EQ(dynamic_cast<const BurstProcess&>(net.process(2)).heard_, 2u);
}

TEST(SimBatching, ValidatesUsage) {
  SimNetwork net({2, 0}, std::make_unique<sched::FifoScheduler>());
  EXPECT_THROW(net.enable_batching(0), std::invalid_argument);
  EXPECT_THROW(net.enable_batching(kMaxBatchFrames + 1), std::invalid_argument);
  net.add_process(std::make_unique<EchoProcess>());
  net.add_process(std::make_unique<EchoProcess>());
  net.start();
  EXPECT_THROW(net.enable_batching(4), std::invalid_argument);
}

}  // namespace
}  // namespace apxa::net
