// T7 — Adaptive-termination stress: measuring the gap the witness technique
// was invented to close.
//
// The adaptive mode derives round budgets from local spread estimates (with
// slack, max-adoption and DONE-freezing; see async_crash.hpp).  Under benign
// scheduling it terminates with eps-agreement; under adversarial scheduling a
// local-estimate rule can in principle be defeated (a clique of n - t parties
// can be kept mutually ignorant of far-away values).  This harness measures
// how often each scheduler actually defeats it, and how the slack factor
// moves the needle — empirical evidence for why asynchronous termination
// needed stronger machinery (reliable broadcast / witnesses) in follow-on
// work.
#include <cstdio>

#include "bench_util.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace apxa;
  using namespace apxa::core;
  using namespace apxa::harness;

  bench::JsonSink sink(argc, argv, "t7");
  const SystemParams p{9, 2};
  const double eps = 1e-3;
  std::printf(
      "T7 — Adaptive termination (crash model, n = %u, t = %u, eps = 1e-3,\n"
      "clustered-plus-outlier inputs, 32 seeds per cell).\n"
      "viol = runs ending with spread > eps; rounds = worst rounds run.\n\n",
      p.n, p.t);

  bench::Table tab({"scheduler", "slack", "viol/runs", "worst gap/eps", "rounds"});

  const struct {
    const char* name;
    SchedKind sched;
  } scheds[] = {
      {"fifo", SchedKind::kFifo},
      {"random", SchedKind::kRandom},
      {"greedy split-brain", SchedKind::kGreedySplit},
      // The impossibility construction: an (n-t)-clique of mutually-fast
      // parties finishes on clique-local estimates while the outsiders (who
      // hold the outlier inputs below) are kept at the delay bound.
      {"clique isolation", SchedKind::kClique},
  };

  for (const auto& s : scheds) {
    for (const double slack : {1.0, 4.0, 16.0}) {
      std::vector<RunConfig> grid;
      for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        Rng rng(seed);
        RunConfig cfg;
        cfg.params = p;
        cfg.protocol = ProtocolKind::kCrashRound;
        cfg.mode = TerminationMode::kAdaptive;
        cfg.epsilon = eps;
        cfg.adaptive_slack = slack;
        cfg.sched = s.sched;
        cfg.seed = seed;
        // Adversarial input shape: a tight cluster plus far outliers — the
        // configuration that can fool local spread estimates.
        cfg.inputs.assign(p.n, 0.0);
        for (std::uint32_t i = 0; i < p.n; ++i) {
          cfg.inputs[i] = rng.next_double(0.0, 0.01);
        }
        cfg.inputs[p.n - 1] = 100.0;
        cfg.inputs[p.n - 2] = -100.0;
        grid.push_back(std::move(cfg));
      }
      int runs = 0, viol = 0;
      double worst_ratio = 0.0;
      Round worst_rounds = 0;
      for (const auto& rep : harness::run_many(grid)) {
        ++runs;
        if (!rep.all_output || !rep.agreement_ok) ++viol;
        worst_ratio = std::max(worst_ratio, rep.worst_pair_gap / eps);
        worst_rounds = std::max(worst_rounds, rep.max_round_reached);
      }
      tab.add_row({s.name, bench::fmt(slack, 0),
                   std::to_string(viol) + "/" + std::to_string(runs),
                   bench::fmt(worst_ratio, 2), std::to_string(worst_rounds)});
    }
  }
  tab.print();
  sink.add_table("adaptive_termination", tab);

  std::printf(
      "\nReading: the DONE-freeze + range-widening + max-adoption design is\n"
      "expected to survive (freezing requires an (n-t)-quorum closure that is\n"
      "internally eps-agreed, and every still-running party's views contain\n"
      ">= n-2t frozen values, pulling it in at the guaranteed rate).  A nonzero\n"
      "viol column would expose a budget-constant undershoot; zero violations\n"
      "are evidence — not proof — for the reconstruction.  More slack buys\n"
      "rounds, not certainty: the formal gap is what the witness-technique\n"
      "follow-on work closed.\n");
  return sink.finish();
}
