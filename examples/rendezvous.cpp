// Rendezvous: a drone swarm agrees on a 2-D meeting point.
//
// The classic multidimensional approximate-agreement motivation: each drone
// proposes a rendezvous coordinate; up to t drones may drop out mid-protocol
// (crash faults, possibly half-way through a multicast); the survivors must
// pick points within eps of each other, inside the bounding box of the
// proposals, over an asynchronous radio network.
//
// The scenario is a harness::VectorRunConfig, so the same swarm runs on the
// deterministic simulator (adversarial greedy scheduler) AND on the threaded
// runtime (real concurrency) — identical box-validity and L-infinity
// verdicts either way.
//
//   $ ./rendezvous
#include <chrono>
#include <cstdio>

#include "core/bounds.hpp"
#include "geom/geom.hpp"
#include "harness/harness.hpp"

int main() {
  using namespace apxa;
  using namespace apxa::core;

  const SystemParams params{9, 3};
  const double eps = 0.5;  // half a meter is plenty for a rendezvous

  harness::VectorRunConfig cfg;
  cfg.params = params;
  cfg.dim = 2;
  cfg.epsilon = eps;
  cfg.averager = Averager::kMean;
  cfg.sched = harness::SchedKind::kGreedySplit;  // hostile radio conditions
  // Proposed meeting points (x, y) in meters.
  cfg.inputs = {{12.0, 40.0}, {15.5, 38.2}, {11.1, 45.0}, {90.0, 42.0},
                {13.7, 41.3}, {14.2, 39.8}, {12.9, 44.1}, {16.0, 40.7},
                {13.3, 43.5}};
  cfg.fixed_rounds = rounds_for_bound(128.0, eps, cfg.averager, params);

  // Three drones lose power mid-flight, one of them mid-multicast.
  cfg.crashes = {
      adversary::partial_multicast_crash(params, 3, 1, {0, 1}),  // the outlier!
      adversary::CrashSpec{6, 2 * (params.n - 1) + 4, {}},
      adversary::CrashSpec{8, 0, {}},  // dead on arrival
  };

  const harness::VectorRunReport rep = harness::run(cfg);

  std::printf("drone rendezvous (n = %u, t = %u, eps = %.1f m):\n\n", params.n,
              params.t, eps);
  std::printf("  %-10s %-12s\n", "drone", "target (x, y)");
  for (std::size_t i = 0; i < rep.outputs.size(); ++i) {
    std::printf("  #%-9zu (%.3f, %.3f)\n", i, rep.outputs[i][0], rep.outputs[i][1]);
  }
  std::printf("\n  worst pairwise distance : %.4f m (Linf), %.4f m (L2)\n",
              rep.worst_linf_gap, rep.worst_l2_gap);
  std::printf("  inside proposal box     : %s\n", rep.box_validity_ok ? "yes" : "NO");
  std::printf("  rounds x messages       : %u x %llu\n", cfg.fixed_rounds,
              static_cast<unsigned long long>(rep.metrics.messages_sent));
  std::printf("  agreement               : %s\n",
              rep.agreement_ok ? "reached" : "FAILED");

  // Same swarm, real threads: the guarantees must not depend on the
  // simulator's schedule.  Generous timeout — a loaded CI machine must not
  // turn this smoke test into a flake.
  cfg.backend = harness::BackendKind::kThread;
  cfg.thread_timeout = std::chrono::seconds(60);
  const harness::VectorRunReport threaded = harness::run(cfg);
  std::printf("\n  threaded backend        : box %s, gap %.4f m (%s)\n",
              threaded.box_validity_ok ? "valid" : "INVALID",
              threaded.worst_linf_gap,
              threaded.agreement_ok ? "agreed" : "FAILED");

  std::printf(
      "\nNote how drone 3's far-away proposal (90, 42) pulls the rendezvous\n"
      "only within the box — and that it crashing mid-multicast cannot split\n"
      "the survivors.\n");
  // all_output guards against vacuously-true verdicts: a timed-out run has
  // no outputs, and every all_of/spread check passes on an empty set.
  return rep.all_output && rep.agreement_ok && rep.box_validity_ok &&
                 threaded.all_output && threaded.agreement_ok &&
                 threaded.box_validity_ok
             ? 0
             : 1;
}
