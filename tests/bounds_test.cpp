// Tests for the theoretical predictors and round budgeting.
#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.hpp"

namespace apxa::core {
namespace {

TEST(Bounds, CrashAsyncMeanFactor) {
  EXPECT_DOUBLE_EQ(predicted_factor_crash_async_mean(3, 1), 2.0);
  EXPECT_DOUBLE_EQ(predicted_factor_crash_async_mean(10, 3), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(predicted_factor_crash_async_mean(31, 1), 30.0);
  EXPECT_THROW(predicted_factor_crash_async_mean(4, 2), std::invalid_argument);
  EXPECT_THROW(predicted_factor_crash_async_mean(4, 0), std::invalid_argument);
}

TEST(Bounds, FactorGrowsWithNOverT) {
  // Fekete's headline: the crash rate scales like n/t while halving is stuck.
  double prev = 0.0;
  for (std::uint32_t n = 4; n <= 64; n *= 2) {
    const double k = predicted_factor_crash_async_mean(n, 1);
    EXPECT_GT(k, prev);
    prev = k;
  }
  EXPECT_GT(prev, 10.0 * predicted_factor_midpoint());
}

TEST(Bounds, DlpswSyncFactorAtBoundaryIsTwo) {
  EXPECT_DOUBLE_EQ(predicted_factor_dlpsw_sync(4, 1), 2.0);
  EXPECT_DOUBLE_EQ(predicted_factor_dlpsw_sync(7, 2), 2.0);
  EXPECT_GT(predicted_factor_dlpsw_sync(16, 1), 2.0);
  EXPECT_THROW(predicted_factor_dlpsw_sync(6, 2), std::invalid_argument);
}

TEST(Bounds, DlpswAsyncFactorAtBoundaryIsTwo) {
  EXPECT_DOUBLE_EQ(predicted_factor_dlpsw_async(6, 1), 2.0);
  EXPECT_GT(predicted_factor_dlpsw_async(32, 1), 2.0);
  EXPECT_THROW(predicted_factor_dlpsw_async(10, 2), std::invalid_argument);
}

TEST(Bounds, WitnessFactorIsTwo) {
  EXPECT_DOUBLE_EQ(predicted_factor_witness(), 2.0);
}

TEST(Bounds, RoundsNeededLogarithmic) {
  EXPECT_EQ(rounds_needed(1.0, 1.0, 2.0), 0u);
  EXPECT_EQ(rounds_needed(0.5, 1.0, 2.0), 0u);
  EXPECT_EQ(rounds_needed(2.0, 1.0, 2.0), 1u);
  EXPECT_EQ(rounds_needed(1024.0, 1.0, 2.0), 10u);
  EXPECT_EQ(rounds_needed(1000.0, 1.0, 10.0), 3u);
  // Non-integer factor.
  EXPECT_EQ(rounds_needed(10.0, 1.0, 1.5), 6u);  // 1.5^6 ~ 11.39 >= 10
}

TEST(Bounds, RoundsNeededRejectsBadArgs) {
  EXPECT_THROW(rounds_needed(1.0, 0.0, 2.0), std::invalid_argument);
  EXPECT_THROW(rounds_needed(1.0, 1.0, 1.0), std::invalid_argument);
}

TEST(Bounds, RoundsNeededSufficient) {
  // K^rounds >= S / eps must hold.
  for (double S : {1.0, 3.0, 100.0, 12345.0}) {
    for (double eps : {1e-1, 1e-3, 1e-6}) {
      for (double K : {1.5, 2.0, 7.0}) {
        const Round r = rounds_needed(S, eps, K);
        EXPECT_GE(std::pow(K, r) * eps, S * (1.0 - 1e-9));
        if (r > 0) {
          EXPECT_LT(std::pow(K, r - 1) * eps, S * (1.0 + 1e-9));
        }
      }
    }
  }
}

TEST(Bounds, ResilienceChecks) {
  EXPECT_TRUE(resilience_crash_async(3, 1));
  EXPECT_FALSE(resilience_crash_async(2, 1));
  EXPECT_TRUE(resilience_byz_sync(4, 1));
  EXPECT_FALSE(resilience_byz_sync(3, 1));
  EXPECT_TRUE(resilience_byz_async(6, 1));
  EXPECT_FALSE(resilience_byz_async(5, 1));
  EXPECT_TRUE(resilience_witness(4, 1));
  EXPECT_FALSE(resilience_witness(3, 1));
}

TEST(Bounds, RoundsForBoundCoversWorstSpread) {
  // rounds_for_bound budgets from S <= 2M; the budget must cover the ratio.
  const SystemParams p{10, 3};
  for (double M : {0.5, 1.0, 100.0, 1e6}) {
    for (double eps : {1e-1, 1e-4}) {
      const Round r = rounds_for_bound(M, eps, Averager::kMean, p);
      const double k = predicted_factor_crash_async_mean(p.n, p.t);
      EXPECT_GE(std::pow(k, r) * eps, 2.0 * M * (1 - 1e-9));
    }
  }
  EXPECT_EQ(rounds_for_bound(0.0, 1e-3, Averager::kMean, p), 0u);
  EXPECT_THROW(rounds_for_bound(-1.0, 1e-3, Averager::kMean, p),
               std::invalid_argument);
}

TEST(Bounds, PredictedFactorDispatch) {
  EXPECT_DOUBLE_EQ(predicted_factor(Averager::kMean, 10, 2), 4.0);
  EXPECT_DOUBLE_EQ(predicted_factor(Averager::kMidpoint, 10, 2), 2.0);
  EXPECT_DOUBLE_EQ(predicted_factor(Averager::kReduceMidpoint, 10, 2), 2.0);
  EXPECT_DOUBLE_EQ(predicted_factor(Averager::kDlpswSync, 10, 2),
                   predicted_factor_dlpsw_sync(10, 2));
}

}  // namespace
}  // namespace apxa::core
