#include "core/bounds.hpp"

#include <algorithm>
#include <cmath>

#include "common/ensure.hpp"

namespace apxa::core {

double predicted_factor_crash_async_mean(std::uint32_t n, std::uint32_t t) {
  APXA_ENSURE(t >= 1 && n > 2 * t, "crash async requires n > 2t, t >= 1");
  return static_cast<double>(n - t) / static_cast<double>(t);
}

double predicted_factor_midpoint() { return 2.0; }

double predicted_factor_crash_sync_mean(std::uint32_t n, std::uint32_t t) {
  APXA_ENSURE(t >= 1 && n > 2 * t, "crash sync requires n > 2t, t >= 1");
  return static_cast<double>(n - t) / static_cast<double>(t);
}

double predicted_factor_dlpsw_sync(std::uint32_t n, std::uint32_t t) {
  APXA_ENSURE(t >= 1 && n > 3 * t, "dlpsw sync requires n > 3t, t >= 1");
  const double base = std::floor(static_cast<double>(n - 3 * t) / (2.0 * t)) + 2.0;
  return std::max(2.0, base);
}

double predicted_factor_dlpsw_async(std::uint32_t n, std::uint32_t t) {
  APXA_ENSURE(t >= 1 && n > 5 * t, "dlpsw async requires n > 5t, t >= 1");
  // Number of elements select_2t keeps from the n - 3t survivors of
  // reduce_t over an (n - t)-value view: floor((n - 3t - 1) / (2t)) + 1.
  // Exactly 2 at the resilience boundary n = 5t + 1, growing with n/t.
  const double base =
      std::floor(static_cast<double>(n - 3 * t - 1) / (2.0 * t)) + 1.0;
  return std::max(2.0, base);
}

double predicted_factor_witness() { return 2.0; }

double predicted_factor(Averager a, std::uint32_t n, std::uint32_t t) {
  switch (a) {
    case Averager::kMean:
    case Averager::kMedian:
      return predicted_factor_crash_async_mean(n, t);
    case Averager::kMidpoint:
    case Averager::kReduceMidpoint:
      return predicted_factor_midpoint();
    case Averager::kDlpswSync:
      return predicted_factor_dlpsw_sync(n, t);
    case Averager::kDlpswAsync:
      return predicted_factor_dlpsw_async(n, t);
  }
  APXA_ASSERT(false, "unknown averager");
}

Round rounds_needed(double S, double eps, double K) {
  APXA_ENSURE(eps > 0.0, "epsilon must be positive");
  APXA_ENSURE(K > 1.0, "convergence factor must exceed 1");
  if (S <= eps) return 0;
  const double r = std::log(S / eps) / std::log(K);
  return static_cast<Round>(std::ceil(r - 1e-12));
}

Round rounds_for_bound(double M, double epsilon, Averager averager,
                       SystemParams params) {
  APXA_ENSURE(M >= 0.0, "magnitude bound must be non-negative");
  return rounds_needed(2.0 * M, epsilon,
                       predicted_factor(averager, params.n, params.t));
}

bool resilience_crash_async(std::uint32_t n, std::uint32_t t) { return n > 2 * t; }
bool resilience_byz_sync(std::uint32_t n, std::uint32_t t) { return n > 3 * t; }
bool resilience_byz_async(std::uint32_t n, std::uint32_t t) { return n > 5 * t; }
bool resilience_witness(std::uint32_t n, std::uint32_t t) { return n > 3 * t; }

}  // namespace apxa::core
