// Scheduler strategies: delay legality, determinism, and the value-ordering
// behavior of the greedy split-brain adversary.
#include <gtest/gtest.h>

#include "core/codec.hpp"
#include "sched/clique_scheduler.hpp"
#include "sched/crash_timing_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/greedy_split_scheduler.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa::sched {
namespace {

net::Message round_msg(ProcessId from, ProcessId to, Round r, double value) {
  net::Message m;
  m.from = from;
  m.to = to;
  m.payload = core::encode_round(core::RoundMsg{r, value, 0});
  return m;
}

TEST(ClampDelay, KeepsDelaysLegal) {
  EXPECT_EQ(clamp_delay(5.0), 1.0);
  EXPECT_EQ(clamp_delay(-1.0), 1e-9);
  EXPECT_EQ(clamp_delay(0.25), 0.25);
}

TEST(RandomScheduler, DelaysInUnitInterval) {
  RandomScheduler s(3);
  const auto m = round_msg(0, 1, 0, 0.5);
  for (int i = 0; i < 1000; ++i) {
    const double d = s.delay(m);
    EXPECT_GT(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(RandomScheduler, SeedDeterminism) {
  RandomScheduler a(9), b(9);
  const auto m = round_msg(0, 1, 0, 0.5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.delay(m), b.delay(m));
}

TEST(FifoScheduler, ConstantDelay) {
  FifoScheduler s(0.5);
  const auto m1 = round_msg(0, 1, 0, 0.5);
  const auto m2 = round_msg(2, 3, 7, 99.0);
  EXPECT_EQ(s.delay(m1), 0.5);
  EXPECT_EQ(s.delay(m2), 0.5);
}

TEST(GreedySplit, LowCampReceivesLowValuesFirst) {
  GreedySplitScheduler s(core::value_probe(), 8);
  // Warm the range estimate.
  (void)s.delay(round_msg(0, 1, 0, 0.0));
  (void)s.delay(round_msg(1, 2, 0, 1.0));

  // Receiver 1 is in the LOW camp (ids < 4): low values get smaller delays.
  const double d_low_val = s.delay(round_msg(2, 1, 0, 0.0));
  const double d_high_val = s.delay(round_msg(3, 1, 0, 1.0));
  EXPECT_LT(d_low_val, d_high_val);

  // Receiver 6 is in the HIGH camp: mirrored.
  const double d_low_val_hi = s.delay(round_msg(2, 6, 0, 0.0));
  const double d_high_val_hi = s.delay(round_msg(3, 6, 0, 1.0));
  EXPECT_GT(d_low_val_hi, d_high_val_hi);
}

TEST(GreedySplit, NonValueTrafficNeutral) {
  GreedySplitScheduler s(core::value_probe(), 8);
  net::Message m;
  m.from = 0;
  m.to = 1;
  m.payload = core::encode_done(core::DoneMsg{1, 2.0});
  EXPECT_EQ(s.delay(m), 0.5);
}

TEST(GreedySplit, DelaysAlwaysLegal) {
  GreedySplitScheduler s(core::value_probe(), 6);
  for (double v : {-100.0, 0.0, 3.0, 1e9}) {
    for (ProcessId to = 0; to < 6; ++to) {
      const double d = s.delay(round_msg(5, to, 1, v));
      EXPECT_GT(d, 0.0);
      EXPECT_LE(d, 1.0);
    }
  }
}

TEST(TargetedDelay, LinkBiasOverridesSenderBias) {
  TargetedDelayScheduler s(4);
  s.bias_sender(0, 0.9);
  s.bias_link(0, 2, 0.1);
  EXPECT_EQ(s.delay(round_msg(0, 1, 0, 0.0)), 0.9);
  EXPECT_EQ(s.delay(round_msg(0, 2, 0, 0.0)), 0.1);
}

TEST(TargetedDelay, UnbiasedIsRandomButLegal) {
  TargetedDelayScheduler s(4);
  for (int i = 0; i < 100; ++i) {
    const double d = s.delay(round_msg(3, 1, 0, 0.0));
    EXPECT_GT(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST(CliqueScheduler, BoundaryTrafficSlow) {
  CliqueScheduler s({0, 1, 2}, 0.05, 0.999);
  EXPECT_EQ(s.delay(round_msg(0, 1, 0, 0.0)), 0.05);   // inside clique
  EXPECT_EQ(s.delay(round_msg(4, 5, 0, 0.0)), 0.05);   // among outsiders
  EXPECT_EQ(s.delay(round_msg(0, 4, 0, 0.0)), 0.999);  // crossing out
  EXPECT_EQ(s.delay(round_msg(4, 0, 0, 0.0)), 0.999);  // crossing in
}

TEST(CliqueScheduler, RejectsInvertedDelays) {
  EXPECT_THROW(CliqueScheduler({0}, 0.9, 0.1), std::invalid_argument);
}

TEST(CliqueScheduler, DelaysStillWithinDelta) {
  CliqueScheduler s({0, 1}, 0.5, 1.5);  // 1.5 clamps to 1.0
  EXPECT_LE(s.delay(round_msg(0, 3, 0, 0.0)), 1.0);
}

}  // namespace
}  // namespace apxa::sched
