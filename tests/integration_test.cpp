// Cross-module integration: the full experiment pipeline the benches use —
// simulator + protocols + analysis — and consistency between the analytic
// worst case and executed runs.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/rate_meter.hpp"
#include "analysis/worst_case.hpp"
#include "core/bounds.hpp"
#include "core/sync_aa.hpp"
#include "harness/harness.hpp"

namespace apxa {
namespace {

using namespace core;
using namespace harness;

TEST(Integration, ExecutedFactorNeverBelowAnalyticWorstCase) {
  // The exact analytic worst case lower-bounds every executed round's factor:
  // no schedule the simulator produces may beat the adversary's optimum.
  const SystemParams p{10, 3};
  analysis::WorstCaseQuery q;
  q.params = p;
  q.averager = Averager::kMean;
  const double analytic = analysis::worst_one_round_factor(q).worst_factor;

  for (const SchedKind sched :
       {SchedKind::kRandom, SchedKind::kFifo, SchedKind::kGreedySplit}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      RunConfig cfg;
      cfg.params = p;
      cfg.protocol = ProtocolKind::kCrashRound;
      cfg.inputs = split_inputs(p.n, p.n / 2, 0.0, 1.0);
      cfg.fixed_rounds = 5;
      cfg.sched = sched;
      cfg.seed = seed;
      const auto rep = harness::run(cfg);
      for (double f : rep.round_factors) {
        EXPECT_GE(f, analytic - 1e-9)
            << "scheduler " << static_cast<int>(sched) << " seed " << seed;
      }
    }
  }
}

TEST(Integration, GreedySchedulerApproachesWorstCase) {
  // The greedy split-brain adversary should land within ~2x of the analytic
  // worst case on a binary-split input, while FIFO (benign) does much better.
  const SystemParams p{16, 5};
  analysis::WorstCaseQuery q;
  q.params = p;
  q.averager = Averager::kMean;
  const double analytic = analysis::worst_one_round_factor(q).worst_factor;

  auto measure = [&](SchedKind sched) {
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kCrashRound;
    cfg.inputs = split_inputs(p.n, p.n / 2, 0.0, 1.0);
    cfg.fixed_rounds = 4;
    cfg.sched = sched;
    const auto rep = harness::run(cfg);
    const auto rate = analysis::summarize_rates(rep.spread_by_round);
    return rate.measurable ? rate.per_round_min
                           : std::numeric_limits<double>::infinity();
  };

  const double greedy = measure(SchedKind::kGreedySplit);
  EXPECT_LT(greedy, 2.5 * analytic) << "greedy adversary too weak";
  EXPECT_GE(greedy, analytic - 1e-9);
}

TEST(Integration, AsyncVsSyncRateGap) {
  // Synchronous crash executions converge at least as fast as asynchronous
  // ones on the same inputs (the adversary is strictly weaker).
  const SystemParams p{9, 2};
  const auto inputs = linear_inputs(p.n, 0.0, 1.0);

  RunConfig async_cfg;
  async_cfg.params = p;
  async_cfg.protocol = ProtocolKind::kCrashRound;
  async_cfg.inputs = inputs;
  async_cfg.fixed_rounds = 3;
  async_cfg.sched = SchedKind::kGreedySplit;
  const auto async_rep = harness::run(async_cfg);

  SyncConfig sync_cfg;
  sync_cfg.params = p;
  sync_cfg.inputs = inputs;
  sync_cfg.averager = Averager::kMean;
  sync_cfg.rounds = 3;
  const auto sync_rep = run_sync(sync_cfg);

  EXPECT_LE(sync_rep.spread_by_round.back(),
            async_rep.spread_by_round.back() + 1e-12);
}

TEST(Integration, WitnessPaysMessagesForResilience) {
  // Same (n, t), same round/iteration count: the witness protocol moves an
  // order of magnitude more messages than the crash-model round protocol.
  const SystemParams p{10, 3};
  RunConfig round_cfg;
  round_cfg.params = p;
  round_cfg.protocol = ProtocolKind::kCrashRound;
  round_cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  round_cfg.fixed_rounds = 4;
  const auto round_rep = harness::run(round_cfg);

  RunConfig wit_cfg = round_cfg;
  wit_cfg.protocol = ProtocolKind::kWitness;
  const auto wit_rep = harness::run(wit_cfg);

  EXPECT_GT(wit_rep.metrics.messages_sent, 5 * round_rep.metrics.messages_sent);
  EXPECT_TRUE(wit_rep.agreement_ok || wit_rep.worst_pair_gap < 0.2);
}

TEST(Integration, EndToEndEpsilonPipeline) {
  // The canonical experiment: rounds budgeted from theory deliver exactly
  // the promised eps-agreement, across all three protocols.
  struct Spec {
    ProtocolKind kind;
    SystemParams p;
    Averager avg;
  };
  const Spec specs[] = {
      {ProtocolKind::kCrashRound, {9, 3}, Averager::kMean},
      {ProtocolKind::kByzRound, {11, 2}, Averager::kDlpswAsync},
      {ProtocolKind::kWitness, {7, 2}, Averager::kReduceMidpoint},
  };
  for (const auto& s : specs) {
    RunConfig cfg;
    cfg.params = s.p;
    cfg.protocol = s.kind;
    cfg.epsilon = 1e-4;
    cfg.inputs = linear_inputs(s.p.n, -1.0, 1.0);
    cfg.fixed_rounds =
        s.kind == ProtocolKind::kWitness
            ? std::max<Round>(1, rounds_needed(2.0, cfg.epsilon,
                                               predicted_factor_witness()))
            : rounds_for_bound(1.0, cfg.epsilon, s.avg, s.p);
    const auto rep = harness::run(cfg);
    EXPECT_TRUE(rep.all_output);
    EXPECT_TRUE(rep.validity_ok);
    EXPECT_TRUE(rep.agreement_ok)
        << "protocol " << static_cast<int>(s.kind) << " gap "
        << rep.worst_pair_gap;
  }
}

TEST(Integration, LatencyScalesWithRounds) {
  const SystemParams p{7, 2};
  double prev_time = 0.0;
  for (Round r : {2u, 4u, 8u}) {
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kCrashRound;
    cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
    cfg.fixed_rounds = r;
    const auto rep = harness::run(cfg);
    EXPECT_LE(rep.finish_time, static_cast<double>(r) + 1e-9);
    EXPECT_GT(rep.finish_time, prev_time);
    prev_time = rep.finish_time;
  }
}

}  // namespace
}  // namespace apxa
