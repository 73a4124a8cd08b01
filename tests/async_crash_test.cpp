// End-to-end tests of the crash-model round protocol (the paper's headline):
// validity, eps-agreement, liveness under crashes, round complexity, and the
// guaranteed per-round convergence factor.
#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.hpp"
#include "harness/harness.hpp"

namespace apxa::core {
namespace {

using namespace harness;

RunConfig base_config(std::uint32_t n, std::uint32_t t, double eps = 1e-3) {
  RunConfig cfg;
  cfg.params = {n, t};
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.averager = Averager::kMean;
  cfg.mode = TerminationMode::kFixedRounds;
  cfg.epsilon = eps;
  return cfg;
}

TEST(CrashAa, CommonInputImmediateStability) {
  auto cfg = base_config(4, 1);
  cfg.inputs = {5.0, 5.0, 5.0, 5.0};
  cfg.fixed_rounds = 3;
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  for (double y : rep.outputs) EXPECT_EQ(y, 5.0);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok);
}

TEST(CrashAa, ZeroRoundsOutputsInputs) {
  auto cfg = base_config(4, 1);
  cfg.inputs = {1.0, 2.0, 3.0, 4.0};
  cfg.fixed_rounds = 0;
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_EQ(rep.outputs, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(rep.metrics.messages_sent, 0u);
}

TEST(CrashAa, ConvergesToEpsilonFaultFree) {
  auto cfg = base_config(7, 2, 1e-4);
  cfg.inputs = linear_inputs(7, 0.0, 1.0);
  cfg.fixed_rounds = rounds_for_bound(1.0, cfg.epsilon, Averager::kMean, cfg.params);
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << "gap " << rep.worst_pair_gap;
}

TEST(CrashAa, RoundComplexityMatchesBudget) {
  auto cfg = base_config(7, 2);
  cfg.inputs = linear_inputs(7, 0.0, 1.0);
  cfg.fixed_rounds = 6;
  const auto rep = harness::run(cfg);
  // Every round takes at most Delta = 1 of virtual time.
  EXPECT_LE(rep.finish_time, 6.0 + 1e-9);
  EXPECT_EQ(rep.max_round_reached, 6u);
}

TEST(CrashAa, MessageComplexityQuadraticPerRound) {
  auto cfg = base_config(10, 3);
  cfg.inputs = linear_inputs(10, 0.0, 1.0);
  cfg.fixed_rounds = 5;
  const auto rep = harness::run(cfg);
  // n(n-1) messages per round exactly, fault-free.
  EXPECT_EQ(rep.metrics.messages_sent, 10u * 9u * 5u);
}

TEST(CrashAa, SurvivesMaxCrashes) {
  auto cfg = base_config(7, 3);
  cfg.inputs = linear_inputs(7, -2.0, 2.0);
  cfg.fixed_rounds = rounds_for_bound(2.0, cfg.epsilon, Averager::kMean, cfg.params);
  Rng rng(11);
  cfg.crashes = adversary::random_crashes(rng, cfg.params, 3, cfg.fixed_rounds);
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << "gap " << rep.worst_pair_gap;
}

TEST(CrashAa, PartialMulticastCrashIsHandled) {
  auto cfg = base_config(5, 2);
  cfg.inputs = {0.0, 0.0, 1.0, 1.0, 0.5};
  cfg.fixed_rounds = rounds_for_bound(1.0, cfg.epsilon, Averager::kMean, cfg.params);
  cfg.crashes = {adversary::partial_multicast_crash(cfg.params, 0, 1, {1}),
                 adversary::partial_multicast_crash(cfg.params, 4, 0, {3})};
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok);
}

TEST(CrashAa, SpreadShrinksMonotonically) {
  auto cfg = base_config(9, 2);
  cfg.inputs = linear_inputs(9, 0.0, 8.0);
  cfg.fixed_rounds = 8;
  const auto rep = harness::run(cfg);
  ASSERT_GE(rep.spread_by_round.size(), 2u);
  for (std::size_t r = 0; r + 1 < rep.spread_by_round.size(); ++r) {
    EXPECT_LE(rep.spread_by_round[r + 1], rep.spread_by_round[r] + 1e-12);
  }
}

TEST(CrashAa, GuaranteedFactorHoldsPerRound) {
  // Every observed per-round factor must be at least the guaranteed
  // K = (n - t)/t, across schedulers and seeds.
  for (const SchedKind sched :
       {SchedKind::kRandom, SchedKind::kFifo, SchedKind::kGreedySplit}) {
    auto cfg = base_config(10, 3);
    cfg.inputs = split_inputs(10, 5, 0.0, 1.0);
    cfg.fixed_rounds = 6;
    cfg.sched = sched;
    cfg.seed = 21;
    const auto rep = harness::run(cfg);
    const double k = predicted_factor_crash_async_mean(10, 3);
    for (double f : rep.round_factors) {
      EXPECT_GE(f, k - 1e-9) << "scheduler " << static_cast<int>(sched);
    }
  }
}

TEST(CrashAa, OutputsDeterministicAcrossReplays) {
  auto cfg = base_config(6, 2);
  cfg.inputs = linear_inputs(6, 0.0, 1.0);
  cfg.fixed_rounds = 4;
  cfg.seed = 99;
  const auto a = harness::run(cfg);
  const auto b = harness::run(cfg);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.metrics.messages_sent, b.metrics.messages_sent);
  EXPECT_EQ(a.finish_time, b.finish_time);
}

TEST(CrashAa, LiveModeNeverOutputs) {
  auto cfg = base_config(5, 1);
  cfg.inputs = linear_inputs(5, 0.0, 1.0);
  cfg.mode = TerminationMode::kLive;
  cfg.fixed_rounds = 10;  // observation horizon
  const auto rep = harness::run(cfg);
  EXPECT_EQ(rep.status, net::RunStatus::kPredicateSatisfied);
  EXPECT_TRUE(rep.outputs.empty());
  EXPECT_GE(rep.max_round_reached, 10u);
}

TEST(CrashAa, MedianRuleAlsoConverges) {
  auto cfg = base_config(9, 2, 1e-3);
  cfg.averager = Averager::kMedian;
  cfg.inputs = linear_inputs(9, 0.0, 1.0);
  cfg.fixed_rounds = 30;  // median has no guaranteed factor; use plenty
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
}

TEST(CrashAa, ResilienceGuard) {
  auto cfg = base_config(4, 2);  // n = 2t: rejected
  cfg.inputs = {0, 0, 0, 0};
  cfg.fixed_rounds = 1;
  EXPECT_THROW(harness::run(cfg), std::invalid_argument);
}

TEST(CrashAa, InputSizeGuard) {
  auto cfg = base_config(4, 1);
  cfg.inputs = {0, 0};  // wrong size
  cfg.fixed_rounds = 1;
  EXPECT_THROW(harness::run(cfg), std::invalid_argument);
}

TEST(CrashAa, NegativeAndLargeInputs) {
  auto cfg = base_config(7, 2, 1e-2);
  cfg.inputs = {-1e6, 1e6, 0.0, 2.5, -2.5, 1e5, -1e5};
  cfg.fixed_rounds = rounds_for_bound(1e6, cfg.epsilon, Averager::kMean, cfg.params);
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
}

// Property sweep: validity + agreement hold for every (n, t) pair, scheduler
// and seed combination.
struct SweepParam {
  std::uint32_t n, t;
  SchedKind sched;
  std::uint64_t seed;
};

class CrashSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CrashSweep, ValidityAndAgreement) {
  const auto [n, t, sched, seed] = GetParam();
  Rng rng(seed);
  RunConfig cfg = base_config(n, t, 1e-3);
  cfg.inputs = random_inputs(rng, n, -5.0, 5.0);
  cfg.fixed_rounds = rounds_for_bound(5.0, cfg.epsilon, Averager::kMean, cfg.params);
  cfg.sched = sched;
  cfg.seed = seed;
  const std::uint32_t crash_count = rng.next_below(t + 1);
  cfg.crashes = adversary::random_crashes(rng, cfg.params,
                                          static_cast<std::uint32_t>(crash_count),
                                          cfg.fixed_rounds);
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << "n=" << n << " t=" << t << " gap "
                                << rep.worst_pair_gap;
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> ps;
  const std::pair<std::uint32_t, std::uint32_t> systems[] = {
      {3, 1}, {4, 1}, {5, 2}, {7, 3}, {10, 3}, {13, 4}};
  const SchedKind scheds[] = {SchedKind::kRandom, SchedKind::kFifo,
                              SchedKind::kGreedySplit};
  std::uint64_t seed = 1;
  for (auto [n, t] : systems) {
    for (auto s : scheds) {
      ps.push_back({n, t, s, seed++});
      ps.push_back({n, t, s, seed++});
    }
  }
  return ps;
}

INSTANTIATE_TEST_SUITE_P(Systems, CrashSweep, ::testing::ValuesIn(sweep_params()));

}  // namespace
}  // namespace apxa::core
