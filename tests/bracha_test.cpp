// Bracha reliable broadcast: validity, agreement, totality, equivocation
// resistance, multi-instance multiplexing, and message complexity.  The
// Bracha.* cases broadcast 1-point payloads (how scalar protocols use the
// hub), the VecBracha.* cases R^d points.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/codec.hpp"
#include "net/sim.hpp"
#include "rb/bracha.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa::rb {
namespace {

/// Harness process: runs a BrachaHub, optionally broadcasting 1-point
/// values at start; records every delivery.
class RbParty final : public net::Process {
 public:
  RbParty(SystemParams params, std::map<std::uint32_t, double> to_broadcast)
      : to_broadcast_(std::move(to_broadcast)),
        hub_(params, [this](net::Context&, std::uint32_t inst, ProcessId origin,
                            const std::vector<double>& value) {
          EXPECT_EQ(value.size(), 1u);
          delivered_[{inst, origin}] = value.at(0);
        }) {}

  void on_start(net::Context& ctx) override {
    for (const auto& [inst, v] : to_broadcast_) hub_.broadcast(ctx, inst, {v});
  }

  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override {
    hub_.handle(ctx, from, payload);
  }

  std::map<std::uint32_t, double> to_broadcast_;
  std::map<std::pair<std::uint32_t, ProcessId>, double> delivered_;
  BrachaHub hub_;
};

/// Equivocating byzantine sender: SEND(lo) to the first half, SEND(hi) to the
/// second half, then silence (no echoes for anyone).
class RbEquivocator final : public net::Process {
 public:
  void on_start(net::Context& ctx) override {
    const auto n = ctx.params().n;
    for (ProcessId to = 0; to < n; ++to) {
      if (to == ctx.self()) continue;
      const double v = to < n / 2 ? 0.0 : 1.0;
      ctx.send(to, core::encode_rb_vec(core::RbVecMsg{core::MsgType::kRbVecSend,
                                                      0, ctx.self(), {v}}));
    }
  }
  void on_message(net::Context&, ProcessId, BytesView) override {}
};

struct Net {
  std::unique_ptr<net::SimNetwork> sim;
  std::vector<RbParty*> parties;
};

Net make_net(SystemParams p, const std::map<ProcessId, double>& broadcasters,
             std::uint64_t seed = 1) {
  Net out;
  out.sim = std::make_unique<net::SimNetwork>(
      p, std::make_unique<sched::RandomScheduler>(seed));
  for (ProcessId i = 0; i < p.n; ++i) {
    std::map<std::uint32_t, double> bc;
    if (const auto it = broadcasters.find(i); it != broadcasters.end()) {
      bc[0] = it->second;
    }
    auto party = std::make_unique<RbParty>(p, std::move(bc));
    out.parties.push_back(party.get());
    out.sim->add_process(std::move(party));
  }
  return out;
}

TEST(Bracha, ValidityFaultFree) {
  auto net = make_net({4, 1}, {{0, 7.5}});
  net.sim->start();
  net.sim->run();
  for (const auto* p : net.parties) {
    ASSERT_EQ(p->delivered_.size(), 1u);
    EXPECT_EQ(p->delivered_.at({0, 0}), 7.5);
  }
}

TEST(Bracha, AllBroadcastersDeliverEverywhere) {
  auto net = make_net({7, 2}, {{0, 1.0}, {3, 2.0}, {6, 3.0}});
  net.sim->start();
  net.sim->run();
  for (const auto* p : net.parties) {
    EXPECT_EQ(p->delivered_.size(), 3u);
    EXPECT_EQ(p->delivered_.at({0, 0}), 1.0);
    EXPECT_EQ(p->delivered_.at({0, 3}), 2.0);
    EXPECT_EQ(p->delivered_.at({0, 6}), 3.0);
  }
}

TEST(Bracha, MultiInstanceMultiplexing) {
  const SystemParams p{4, 1};
  Net out;
  out.sim = std::make_unique<net::SimNetwork>(
      p, std::make_unique<sched::RandomScheduler>(5));
  for (ProcessId i = 0; i < p.n; ++i) {
    std::map<std::uint32_t, double> bc;
    if (i == 2) bc = {{0, 10.0}, {1, 20.0}, {5, 50.0}};
    auto party = std::make_unique<RbParty>(p, std::move(bc));
    out.parties.push_back(party.get());
    out.sim->add_process(std::move(party));
  }
  out.sim->start();
  out.sim->run();
  for (const auto* q : out.parties) {
    EXPECT_EQ(q->delivered_.at({0, 2}), 10.0);
    EXPECT_EQ(q->delivered_.at({1, 2}), 20.0);
    EXPECT_EQ(q->delivered_.at({5, 2}), 50.0);
  }
}

TEST(Bracha, TotalityUnderCrash) {
  // The origin crashes mid-SEND-multicast after reaching only 2 receivers;
  // if any correct party delivers, all must.  (With 2/3 correct receivers
  // echoing, delivery goes through here.)
  auto net = make_net({4, 1}, {{0, 9.0}});
  net.sim->crash_after_sends(0, 2);  // SENDs to parties 1 and 2 only
  net.sim->start();
  net.sim->run();
  std::size_t delivered = 0;
  for (ProcessId i = 1; i < 4; ++i) {
    if (net.parties[i]->delivered_.contains({0, 0})) ++delivered;
  }
  // Totality: all-or-nothing among the 3 correct parties.
  EXPECT_TRUE(delivered == 0 || delivered == 3) << delivered << " delivered";
}

TEST(Bracha, NoDeliveryWithoutQuorum) {
  // Origin reaches only 1 receiver before crashing: 2t+1 = 3 READYs can
  // never accumulate from a single echo in a 4-party system... the correct
  // parties must not deliver a value nobody can confirm.
  auto net = make_net({4, 1}, {{0, 9.0}});
  net.sim->crash_after_sends(0, 1);
  net.sim->start();
  net.sim->run();
  for (ProcessId i = 1; i < 4; ++i) {
    EXPECT_TRUE(net.parties[i]->delivered_.empty());
  }
}

TEST(Bracha, EquivocationNeverSplitsDelivery) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const SystemParams p{4, 1};
    net::SimNetwork sim(p, std::make_unique<sched::RandomScheduler>(seed));
    std::vector<RbParty*> parties;
    sim.add_process(std::make_unique<RbEquivocator>());
    sim.mark_byzantine(0);
    for (ProcessId i = 1; i < 4; ++i) {
      auto party = std::make_unique<RbParty>(p, std::map<std::uint32_t, double>{});
      parties.push_back(party.get());
      sim.add_process(std::move(party));
    }
    sim.start();
    sim.run();
    // Agreement: at most one distinct value delivered across correct parties.
    std::set<double> values;
    for (const auto* q : parties) {
      for (const auto& [key, v] : q->delivered_) values.insert(v);
    }
    EXPECT_LE(values.size(), 1u) << "seed " << seed;
  }
}

TEST(Bracha, MessageComplexityQuadratic) {
  const SystemParams p{7, 2};
  auto net = make_net(p, {{0, 1.0}});
  net.sim->start();
  net.sim->run();
  // SEND: n-1; ECHO: n per party... upper bound 3 multicasts per party.
  const auto sent = net.sim->metrics().messages_sent;
  EXPECT_LE(sent, 3u * 7u * 6u);
  EXPECT_GE(sent, 2u * 6u * 6u);  // at least echoes + readies from correct
}

TEST(Bracha, OneEchoVotePerVoterPerSlot) {
  // A byzantine voter that echoes value A and later value B must count for A
  // only: otherwise flip-flopped votes (and vote floods of fresh forged
  // values) both grow unbounded per-slot state and let one voter contribute
  // to two different quorums.  Here echoes for B reach the n - t = 3 count
  // only if voters 1 and 2's second votes are (incorrectly) honored — the
  // hub must stay silent instead of multicasting READY(B).
  class CountingContext final : public net::Context {
   public:
    void send(ProcessId, Bytes) override { ++sends; }
    void multicast(const Bytes&) override { ++multicasts; }
    [[nodiscard]] ProcessId self() const override { return 0; }
    [[nodiscard]] SystemParams params() const override { return {4, 1}; }
    int sends = 0, multicasts = 0;
  } ctx;
  int deliveries = 0;
  BrachaHub hub({4, 1}, [&](net::Context&, std::uint32_t, ProcessId,
                            const std::vector<double>&) { ++deliveries; });
  auto echo = [](ProcessId, double v) {
    return core::encode_rb_vec(
        core::RbVecMsg{core::MsgType::kRbVecEcho, 0, 2, {v}});
  };
  hub.handle(ctx, 1, echo(1, 1.0));  // A from 1
  hub.handle(ctx, 2, echo(2, 1.0));  // A from 2: A has 2 < 3 votes
  hub.handle(ctx, 1, echo(1, 2.0));  // flip to B — must be ignored
  hub.handle(ctx, 2, echo(2, 2.0));  // flip to B — must be ignored
  hub.handle(ctx, 3, echo(3, 2.0));  // B's only legitimate vote
  EXPECT_EQ(ctx.multicasts, 0) << "a flip-flopped quorum sent READY";
  EXPECT_EQ(deliveries, 0);
}

TEST(Bracha, OutOfRangeOriginDiscardedNotFatal) {
  // A forged message naming origin >= n is byzantine garbage; the hub must
  // consume and drop it, not throw out of an honest party's message loop.
  class NoopContext final : public net::Context {
   public:
    void send(ProcessId, Bytes) override { FAIL() << "unexpected send"; }
    void multicast(const Bytes&) override { FAIL() << "unexpected multicast"; }
    [[nodiscard]] ProcessId self() const override { return 0; }
    [[nodiscard]] SystemParams params() const override { return {4, 1}; }
  } ctx;
  int deliveries = 0;
  BrachaHub hub({4, 1}, [&](net::Context&, std::uint32_t, ProcessId,
                            const std::vector<double>&) { ++deliveries; });
  const Bytes forged = core::encode_rb_vec(
      core::RbVecMsg{core::MsgType::kRbVecEcho, 0, /*origin=*/9, {1.0}});
  EXPECT_TRUE(hub.handle(ctx, 1, forged));  // consumed: it IS an RB message
  EXPECT_EQ(hub.live_slots(), 0u);          // ...but created no state
  EXPECT_EQ(deliveries, 0);
}

TEST(Bracha, RequiresNGreaterThan3T) {
  const SystemParams bad{6, 2};
  EXPECT_THROW(BrachaHub(bad, [](net::Context&, std::uint32_t, ProcessId,
                                 const std::vector<double>&) {}),
               std::invalid_argument);
}

// --- R^d payloads (the equalized-collect transport) -------------------------

/// R^d analogue of RbParty: broadcasts points, records every delivery.
class VecRbParty final : public net::Process {
 public:
  VecRbParty(SystemParams params, std::map<std::uint32_t, std::vector<double>> bc)
      : to_broadcast_(std::move(bc)),
        hub_(params, [this](net::Context&, std::uint32_t inst, ProcessId origin,
                            const std::vector<double>& value) {
          delivered_[{inst, origin}].push_back(value);
        }) {}

  void on_start(net::Context& ctx) override {
    for (const auto& [inst, v] : to_broadcast_) hub_.broadcast(ctx, inst, v);
  }
  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override {
    hub_.handle(ctx, from, payload);
  }

  std::map<std::uint32_t, std::vector<double>> to_broadcast_;
  /// All deliveries per (instance, origin) — uniqueness says size <= 1.
  std::map<std::pair<std::uint32_t, ProcessId>, std::vector<std::vector<double>>>
      delivered_;
  BrachaHub hub_;
};

TEST(VecBracha, ValidityFaultFree) {
  const SystemParams p{4, 1};
  net::SimNetwork sim(p, std::make_unique<sched::RandomScheduler>(3));
  std::vector<VecRbParty*> parties;
  for (ProcessId i = 0; i < p.n; ++i) {
    std::map<std::uint32_t, std::vector<double>> bc;
    if (i == 0) bc[0] = {1.5, -2.5, 3.5};
    auto party = std::make_unique<VecRbParty>(p, std::move(bc));
    parties.push_back(party.get());
    sim.add_process(std::move(party));
  }
  sim.start();
  sim.run();
  for (const auto* q : parties) {
    ASSERT_EQ(q->delivered_.size(), 1u);
    const auto& vs = q->delivered_.at({0, 0});
    ASSERT_EQ(vs.size(), 1u);  // uniqueness: exactly one delivery
    EXPECT_EQ(vs[0], (std::vector<double>{1.5, -2.5, 3.5}));
  }
}

TEST(VecBracha, EquivocationDeliversAtMostOneValuePerOrigin) {
  // A byzantine origin SENDs a different vector to every receiver.  Per
  // party: at most one delivery for (instance, origin).  Across parties:
  // at most one distinct value delivered anywhere (agreement).
  class VecEquivocator final : public net::Process {
   public:
    void on_start(net::Context& ctx) override {
      for (ProcessId to = 0; to < ctx.params().n; ++to) {
        if (to == ctx.self()) continue;
        const std::vector<double> v{static_cast<double>(to), -1.0};
        ctx.send(to, core::encode_rb_vec(core::RbVecMsg{
                         core::MsgType::kRbVecSend, 0, ctx.self(), v}));
      }
    }
    void on_message(net::Context&, ProcessId, BytesView) override {}
  };

  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const SystemParams p{4, 1};
    net::SimNetwork sim(p, std::make_unique<sched::RandomScheduler>(seed));
    std::vector<VecRbParty*> parties;
    sim.add_process(std::make_unique<VecEquivocator>());
    sim.mark_byzantine(0);
    for (ProcessId i = 1; i < 4; ++i) {
      auto party = std::make_unique<VecRbParty>(
          p, std::map<std::uint32_t, std::vector<double>>{});
      parties.push_back(party.get());
      sim.add_process(std::move(party));
    }
    sim.start();
    sim.run();
    std::set<std::vector<double>> values;
    for (const auto* q : parties) {
      for (const auto& [key, vs] : q->delivered_) {
        EXPECT_LE(vs.size(), 1u) << "seed " << seed << ": double delivery";
        for (const auto& v : vs) values.insert(v);
      }
    }
    EXPECT_LE(values.size(), 1u) << "seed " << seed << ": delivery split";
  }
}

TEST(VecBracha, IgnoresScalarRbFrames) {
  // The hub speaks RBVEC only: scalar RB frames (tags 3-5) are left
  // unconsumed, trigger no sends and create no state.
  class NoopContext final : public net::Context {
   public:
    void send(ProcessId, Bytes) override { FAIL() << "unexpected send"; }
    void multicast(const Bytes&) override { FAIL() << "unexpected multicast"; }
    [[nodiscard]] ProcessId self() const override { return 0; }
    [[nodiscard]] SystemParams params() const override { return {4, 1}; }
  } ctx;
  int calls = 0;
  BrachaHub hub({4, 1}, [&](net::Context&, std::uint32_t, ProcessId,
                            const std::vector<double>&) { ++calls; });
  for (const auto type :
       {core::MsgType::kRbSend, core::MsgType::kRbEcho, core::MsgType::kRbReady}) {
    for (ProcessId from = 1; from < 4; ++from) {
      EXPECT_FALSE(hub.handle(ctx, from, core::encode_rb(core::RbMsg{
                                             type, 0, /*origin=*/1, 1.0})));
    }
  }
  EXPECT_EQ(hub.live_slots(), 0u);
  EXPECT_EQ(calls, 0);
}

TEST(Bracha, ForgedSendIgnored) {
  // A SEND claiming origin 0 but arriving from party 1 must not trigger
  // echoes (authenticated channels).
  class Forger final : public net::Process {
   public:
    void on_start(net::Context& ctx) override {
      for (ProcessId to = 0; to < ctx.params().n; ++to) {
        if (to == ctx.self()) continue;
        ctx.send(to, core::encode_rb_vec(core::RbVecMsg{
                         core::MsgType::kRbVecSend, 0, /*origin=*/0, {666.0}}));
      }
    }
    void on_message(net::Context&, ProcessId, BytesView) override {}
  };

  const SystemParams p{4, 1};
  net::SimNetwork sim(p, std::make_unique<sched::RandomScheduler>(2));
  std::vector<RbParty*> parties;
  auto p0 = std::make_unique<RbParty>(p, std::map<std::uint32_t, double>{});
  parties.push_back(p0.get());
  sim.add_process(std::move(p0));
  sim.add_process(std::make_unique<Forger>());
  sim.mark_byzantine(1);
  for (ProcessId i = 2; i < 4; ++i) {
    auto party = std::make_unique<RbParty>(p, std::map<std::uint32_t, double>{});
    parties.push_back(party.get());
    sim.add_process(std::move(party));
  }
  sim.start();
  sim.run();
  for (const auto* q : parties) EXPECT_TRUE(q->delivered_.empty());
}

}  // namespace
}  // namespace apxa::rb
