// Sensor fusion with byzantine sensors — the classic motivation for
// approximate agreement (fault-tolerant sensor/clock fusion, DLPSW 1986).
//
// A replicated control system reads the same physical quantity through 11
// independent sensor nodes.  Two nodes are compromised and feed wildly
// inconsistent readings to different peers (equivocation).  The correct
// nodes must settle on approximately equal estimates that stay within the
// range of the genuine readings — no synchrony, no leader, no signatures.
//
// Demonstrates: the DLPSW asynchronous byzantine protocol (t < n/5) and the
// witness-technique protocol (t < n/3) on the same scenario, with cost
// accounting — the resilience/communication trade-off in one run.
//
//   $ ./sensor_fusion
#include <cstdio>

#include "core/bounds.hpp"
#include "harness/harness.hpp"

namespace {

using namespace apxa;
using namespace apxa::core;
using namespace apxa::harness;

void report(const char* name, const RunReport& rep, double eps) {
  std::printf("%-22s outputs:", name);
  for (double y : rep.outputs) std::printf(" %6.3f", y);
  std::printf("\n%-22s gap=%.4g (eps=%g)  msgs=%llu  bits=%llu  time=%.1f Delta\n",
              "", rep.worst_pair_gap, eps,
              static_cast<unsigned long long>(rep.metrics.messages_sent),
              static_cast<unsigned long long>(rep.metrics.payload_bits()),
              rep.finish_time);
  std::printf("%-22s validity=%s agreement=%s\n\n", "",
              rep.validity_ok ? "ok" : "VIOLATED",
              rep.agreement_ok ? "ok" : "VIOLATED");
}

adversary::ByzSpec compromised(ProcessId who) {
  adversary::ByzSpec s;
  s.who = who;
  s.kind = adversary::ByzKind::kEquivocate;  // different lies to different peers
  s.lo = -40.0;   // claims "sensor reads -40"
  s.hi = 900.0;   // ... or "900", depending on who asks
  s.seed = who;
  return s;
}

}  // namespace

int main() {
  const SystemParams params{11, 2};
  const double eps = 0.05;
  // Genuine pressure readings cluster around 101.3 kPa; byzantine nodes 0
  // and 10 equivocate extremes.
  std::vector<double> readings{101.1, 101.25, 101.4, 101.2, 101.35, 101.3,
                               101.28, 101.33, 101.22, 101.31, 101.2};

  std::printf("Sensor fusion: n = 11 nodes, 2 compromised (equivocating).\n\n");

  // Round-based byzantine protocol: cheap (n^2/round) but needs t < n/5.
  {
    RunConfig cfg;
    cfg.params = params;
    cfg.protocol = ProtocolKind::kByzRound;
    cfg.epsilon = eps;
    cfg.inputs = readings;
    cfg.fixed_rounds = rounds_for_bound(128.0, eps, Averager::kDlpswAsync, params);
    cfg.byz = {compromised(0), compromised(10)};
    report("DLPSW rounds (t<n/5)", harness::run(cfg), eps);
  }

  // Witness technique: optimal resilience t < n/3, pays n^3 messages/iter.
  {
    RunConfig cfg;
    cfg.params = {11, 3};  // can even be configured for 3 faults
    cfg.protocol = ProtocolKind::kWitness;
    cfg.epsilon = eps;
    cfg.inputs = readings;
    cfg.fixed_rounds = std::max<Round>(
        1, rounds_needed(256.0, eps, predicted_factor_witness()));
    cfg.byz = {compromised(0), compromised(10)};
    report("witness (t<n/3)", harness::run(cfg), eps);
  }

  std::printf(
      "Takeaway: both protocols keep the fused estimate inside the genuine\n"
      "reading range; the witness protocol tolerates more faults per node\n"
      "count but moves an order of magnitude more messages.\n");
  return 0;
}
