// Quickstart: asynchronous approximate agreement in ~40 lines.
//
// Seven parties hold different temperature readings; two may crash at
// arbitrary, adversarial moments.  They agree to within 0.01 degrees without
// any synchrony assumption.
//
//   $ ./quickstart
#include <cstdio>

#include "core/bounds.hpp"
#include "harness/harness.hpp"

int main() {
  using namespace apxa;
  using namespace apxa::core;
  using namespace apxa::harness;

  const SystemParams params{7, 2};  // n = 7 parties, up to t = 2 crash faults
  const double eps = 0.01;

  RunConfig cfg;
  cfg.params = params;
  cfg.protocol = ProtocolKind::kCrashRound;  // Fekete-style round protocol
  cfg.averager = Averager::kMean;            // the Theta(n/t)-rate rule
  cfg.epsilon = eps;
  cfg.inputs = {20.1, 20.4, 19.8, 20.0, 21.2, 19.9, 20.3};

  // Round budget from a public bound on input magnitude (|v| <= 32 here).
  cfg.fixed_rounds = rounds_for_bound(32.0, eps, cfg.averager, params);

  // Let the adversary crash two parties mid-multicast.
  cfg.crashes = {
      adversary::partial_multicast_crash(params, 2, /*full_rounds=*/1, {0, 1}),
      adversary::partial_multicast_crash(params, 5, /*full_rounds=*/0, {6}),
  };

  const RunReport rep = harness::run(cfg);

  std::printf("rounds budgeted : %u\n", cfg.fixed_rounds);
  std::printf("messages sent   : %llu\n",
              static_cast<unsigned long long>(rep.metrics.messages_sent));
  std::printf("finish time     : %.2f Delta\n", rep.finish_time);
  std::printf("outputs         :");
  for (double y : rep.outputs) std::printf(" %.4f", y);
  std::printf("\nmax pair gap    : %.6f (eps = %.2f)\n", rep.worst_pair_gap, eps);
  std::printf("validity        : %s\n", rep.validity_ok ? "ok" : "VIOLATED");
  std::printf("eps-agreement   : %s\n", rep.agreement_ok ? "ok" : "VIOLATED");
  return rep.validity_ok && rep.agreement_ok ? 0 : 1;
}
