// Robustness batch: codec fuzzing, byzantine payload injection at the
// network level, collector sweeps, timed crashes, and protocol behavior on
// degenerate inputs.  Everything here is about the library *not breaking*
// when fed garbage or driven at its edges.
#include <gtest/gtest.h>

#include <memory>

#include "adversary/byzantine.hpp"
#include "core/bounds.hpp"
#include "core/codec.hpp"
#include "core/multidim.hpp"
#include "core/round_engine.hpp"
#include "crash_round.hpp"
#include "harness/harness.hpp"
#include "net/sim.hpp"
#include "scalar_outputs.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa {
namespace {

using namespace core;
using namespace harness;

// ---------------------------------------------------------------------------
// Codec fuzz: random byte strings must decode to nullopt or throw the
// controlled overrun error — never crash, never return half-parsed values
// silently accepted by protocols.
// ---------------------------------------------------------------------------

TEST(CodecFuzz, RandomBytesNeverCrash) {
  Rng rng(0xfadedbeeULL);
  int decoded = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const std::size_t len = rng.next_below(40);
    Bytes junk(len);
    for (auto& b : junk) b = static_cast<std::byte>(rng.next_below(256));
    try {
      if (decode_round(junk)) ++decoded;
      if (decode_done(junk)) ++decoded;
      if (decode_rb(junk)) ++decoded;
      if (decode_report(junk)) ++decoded;
      if (decode_vec_round(junk)) ++decoded;
    } catch (const std::invalid_argument&) {
      // controlled rejection of truncated varints/payloads
    }
  }
  // Random bytes occasionally form valid messages; that is fine — the point
  // is the absence of crashes and unbounded allocations.
  SUCCEED() << decoded << " random payloads happened to decode";
}

TEST(CodecFuzz, MutatedValidMessagesHandled) {
  Rng rng(17);
  const Bytes valid = encode_round(RoundMsg{1234, 5.678, 9});
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = valid;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<std::byte>(rng.next_below(256));
    try {
      (void)decode_round(mutated);
      (void)decode_rb(mutated);
    } catch (const std::invalid_argument&) {
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Network-level garbage injection: a byzantine party spraying raw random
// bytes must not harm safety or liveness of any protocol.
// ---------------------------------------------------------------------------

class GarbageSprayer final : public net::Process {
 public:
  explicit GarbageSprayer(std::uint64_t seed) : rng_(seed) {}

  void on_start(net::Context& ctx) override { spray(ctx); }
  void on_message(net::Context& ctx, ProcessId, BytesView) override {
    if (++heard_ % 3 == 0 && sprays_ < 40) spray(ctx);
  }

 private:
  void spray(net::Context& ctx) {
    ++sprays_;
    for (ProcessId to = 0; to < ctx.params().n; ++to) {
      if (to == ctx.self()) continue;
      Bytes junk(rng_.next_below(24));
      for (auto& b : junk) b = static_cast<std::byte>(rng_.next_below(256));
      ctx.send(to, std::move(junk));
    }
  }

  Rng rng_;
  int heard_ = 0;
  int sprays_ = 0;
};

TEST(GarbageInjection, CrashProtocolUnaffected) {
  const SystemParams p{7, 2};
  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(3));
  auto parties = harness::build_processes(crash_round(p, id_inputs(p.n), 6), {});
  parties.pop_back();  // party 6 is the sprayer
  for (auto& proc : parties) net.add_process(std::move(proc));
  net.add_process(std::make_unique<GarbageSprayer>(5));
  net.mark_byzantine(6);
  net.start();
  net.run_until([&net] { return net.all_correct_output(); });
  EXPECT_TRUE(net.all_correct_output());
  const auto outs = scalar_outputs(net.correct_vector_outputs());
  for (double y : outs) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 5.0);
  }
}

TEST(GarbageInjection, WitnessProtocolUnaffected) {
  const SystemParams p{7, 2};
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kWitness;
  cfg.inputs = linear_inputs(7, 0.0, 1.0);
  cfg.fixed_rounds = 8;
  // The noise strategy sends well-formed RB messages with junk values; the
  // sprayer above covers raw bytes.  Use both faults.
  adversary::ByzSpec b;
  b.who = 0;
  b.kind = adversary::ByzKind::kNoise;
  b.lo = -1e9;
  b.hi = 1e9;
  cfg.byz = {b};
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
}

// ---------------------------------------------------------------------------
// Collector sweeps: quorum arithmetic over the whole admissible (n, t) grid.
// ---------------------------------------------------------------------------

class CollectorSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(CollectorSweep, FreezeExactlyAtQuorum) {
  const auto [n, t] = GetParam();
  RoundCollector c(SystemParams{n, t});
  c.add_own(0, 0.0);
  const std::uint32_t quorum = n - t;
  for (std::uint32_t k = 1; k < quorum; ++k) {
    EXPECT_FALSE(c.ready(0)) << "froze early at " << k;
    c.add_remote(k, 0, static_cast<double>(k));
  }
  EXPECT_TRUE(c.ready(0));
  EXPECT_EQ(c.view(0).size(), quorum);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CollectorSweep,
    ::testing::Values(std::pair{3u, 1u}, std::pair{4u, 1u}, std::pair{5u, 2u},
                      std::pair{7u, 3u}, std::pair{10u, 4u}, std::pair{21u, 10u},
                      std::pair{33u, 16u}));

// ---------------------------------------------------------------------------
// Timed crashes and degenerate inputs.
// ---------------------------------------------------------------------------

TEST(TimedCrash, MidRunCrashStillConverges) {
  RunConfig cfg;
  cfg.params = {7, 2};
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.inputs = linear_inputs(7, 0.0, 1.0);
  cfg.fixed_rounds = 8;
  const auto baseline = harness::run(cfg);
  ASSERT_TRUE(baseline.all_output);

  // Crash two parties at virtual times inside the run.
  net::SimNetwork net(cfg.params, std::make_unique<sched::RandomScheduler>(1));
  add_parties(net, cfg);
  net.crash_at_time(1, 2.5);
  net.crash_at_time(5, 4.0);
  net.start();
  net.run_until([&net] { return net.all_correct_output(); });
  EXPECT_TRUE(net.all_correct_output());
  const auto outs = scalar_outputs(net.correct_vector_outputs());
  EXPECT_EQ(outs.size(), 5u);
  std::vector<double> sorted = outs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_LE(sorted.back() - sorted.front(), 1.0);
}

TEST(Degenerate, IdenticalExtremeInputs) {
  RunConfig cfg;
  cfg.params = {5, 1};
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.inputs.assign(5, 1e308);  // near DBL_MAX, all equal
  cfg.fixed_rounds = 3;
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  for (double y : rep.outputs) EXPECT_EQ(y, 1e308);
}

TEST(Degenerate, TinySpreadBelowEpsilon) {
  RunConfig cfg;
  cfg.params = {5, 1};
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.mode = TerminationMode::kAdaptive;
  cfg.epsilon = 1.0;
  cfg.inputs = {0.0, 1e-9, -1e-9, 2e-9, 0.0};
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.agreement_ok);
  EXPECT_LE(rep.max_round_reached, 2u);
}

TEST(Degenerate, MinimalSystemN3T1) {
  RunConfig cfg;
  cfg.params = {3, 1};
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.epsilon = 1e-3;
  cfg.inputs = {0.0, 1.0, 0.25};
  cfg.fixed_rounds = rounds_for_bound(1.0, cfg.epsilon, Averager::kMean, cfg.params);
  cfg.crashes = {adversary::CrashSpec{2, 3, {}}};
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok);
}

// Attack-cap hygiene: attackers stop at max_instances, so even with no
// correct-party termination the message volume is bounded.
TEST(ByzCaps, RoundAttackerBounded) {
  const SystemParams p{4, 1};
  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(1));
  adversary::ByzSpec spec;
  spec.who = 3;
  spec.kind = adversary::ByzKind::kExtremeHigh;
  spec.max_instances = 5;
  auto cfg = crash_round(p, std::vector<double>(p.n, 0.0), 1'000'000);
  cfg.mode = TerminationMode::kLive;  // a horizon far past the delivery cap
  cfg.byz = {spec};
  add_parties(net, cfg);
  net.mark_byzantine(3);
  net.start();
  // Live correct parties generate rounds until the delivery cap; check the
  // attacker's send count stayed within 5 rounds x 3 receivers.
  net.run(20'000);
  EXPECT_LE(net.metrics().sent_by[3], 5u * 3u);
}

}  // namespace
}  // namespace apxa
