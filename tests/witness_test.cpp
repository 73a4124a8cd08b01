// AAD'04 witness-technique AA: optimal t < n/3 byzantine resilience.
#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "harness/harness.hpp"

namespace apxa::core {
namespace {

using namespace harness;

using adversary::ByzKind;
using adversary::ByzSpec;

RunConfig witness_config(std::uint32_t n, std::uint32_t t, double eps = 1e-3) {
  RunConfig cfg;
  cfg.params = {n, t};
  cfg.protocol = ProtocolKind::kWitness;
  cfg.epsilon = eps;
  return cfg;
}

Round witness_rounds(double M, double eps) {
  return std::max<Round>(1, rounds_needed(2.0 * M, eps, predicted_factor_witness()));
}

ByzSpec make_byz(ProcessId who, ByzKind kind) {
  ByzSpec s;
  s.who = who;
  s.kind = kind;
  s.lo = -1e6;
  s.hi = 1e6;
  s.seed = who + 1;
  return s;
}

TEST(Witness, FaultFreeConvergence) {
  auto cfg = witness_config(4, 1, 1e-4);
  cfg.inputs = {0.0, 0.25, 0.75, 1.0};
  cfg.fixed_rounds = witness_rounds(1.0, cfg.epsilon);
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
}

TEST(Witness, OptimalResilienceBeyondOneFifth) {
  // n = 4, t = 1: impossible for the DLPSW round protocol (needs n > 5t),
  // fine for the witness technique — the whole point of the follow-on work.
  EXPECT_FALSE(resilience_byz_async(4, 1));
  EXPECT_TRUE(resilience_witness(4, 1));

  auto cfg = witness_config(4, 1, 1e-3);
  cfg.inputs = {0.0, 0.5, 1.0, 0.25};
  cfg.fixed_rounds = witness_rounds(1.0, cfg.epsilon);
  cfg.byz = {make_byz(3, ByzKind::kEquivocate)};
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
}

class WitnessStrategySweep : public ::testing::TestWithParam<ByzKind> {};

TEST_P(WitnessStrategySweep, SafetyUnderAttack) {
  const ByzKind kind = GetParam();
  auto cfg = witness_config(7, 2, 1e-3);
  cfg.inputs = linear_inputs(7, 0.0, 1.0);
  cfg.fixed_rounds = witness_rounds(1.0, cfg.epsilon);
  cfg.byz = {make_byz(0, kind), make_byz(6, kind)};
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output) << "liveness lost";
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, WitnessStrategySweep,
                         ::testing::Values(ByzKind::kSilent, ByzKind::kExtremeLow,
                                           ByzKind::kExtremeHigh,
                                           ByzKind::kEquivocate,
                                           ByzKind::kNoise));

TEST(Witness, CubicMessageComplexity) {
  // Per iteration: n reliable broadcasts (Theta(n^2) each) + n^2 reports.
  auto small = witness_config(4, 1);
  small.inputs = linear_inputs(4, 0.0, 1.0);
  small.fixed_rounds = 2;
  const auto rep_small = harness::run(small);

  auto large = witness_config(8, 1);
  large.inputs = linear_inputs(8, 0.0, 1.0);
  large.fixed_rounds = 2;
  const auto rep_large = harness::run(large);

  // Doubling n should grow traffic by ~8x for a cubic protocol; allow slack
  // but rule out quadratic growth (4x).
  const double ratio = static_cast<double>(rep_large.metrics.messages_sent) /
                       static_cast<double>(rep_small.metrics.messages_sent);
  EXPECT_GT(ratio, 5.0);
}

TEST(Witness, HalvesSpreadPerIteration) {
  auto cfg = witness_config(7, 2);
  cfg.inputs = split_inputs(7, 3, 0.0, 1.0);
  cfg.fixed_rounds = 5;
  const auto rep = harness::run(cfg);
  ASSERT_GE(rep.spread_by_round.size(), 2u);
  for (double f : rep.round_factors) EXPECT_GE(f, 2.0 - 1e-9);
}

TEST(Witness, AdversarialSchedulerSafety) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto cfg = witness_config(7, 2, 1e-2);
    cfg.inputs = linear_inputs(7, -1.0, 1.0);
    cfg.fixed_rounds = witness_rounds(1.0, cfg.epsilon);
    cfg.sched = SchedKind::kGreedySplit;
    cfg.seed = seed;
    cfg.byz = {make_byz(3, ByzKind::kEquivocate)};
    const auto rep = harness::run(cfg);
    EXPECT_TRUE(rep.all_output);
    EXPECT_TRUE(rep.validity_ok);
    EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
  }
}

TEST(Witness, SurvivesCrashFaults) {
  auto cfg = witness_config(7, 2, 1e-3);
  cfg.inputs = linear_inputs(7, 0.0, 4.0);
  cfg.fixed_rounds = witness_rounds(4.0, cfg.epsilon);
  cfg.crashes = {adversary::partial_multicast_crash(cfg.params, 2, 1, {0, 1}),
                 adversary::partial_multicast_crash(cfg.params, 5, 0, {6})};
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
}

TEST(Witness, ResilienceGuard) {
  auto cfg = witness_config(6, 2);  // n = 3t: rejected
  cfg.inputs = linear_inputs(6, 0.0, 1.0);
  cfg.fixed_rounds = 1;
  EXPECT_THROW(harness::run(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace apxa::core
