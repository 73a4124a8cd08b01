// T6 — Averaging-function ablation: the design choice at the heart of the
// convergence-rate story.
//
// Same engine, same model, different f: exact analytic worst-case factor,
// measured factor, and rounds-to-eps for each rule.  Shows *why* the mean is
// the right rule for crash faults (Theta(n/t)) and what each alternative
// costs; median is included as a cautionary entry (it can stall entirely).
#include <cstdio>

#include "analysis/worst_case.hpp"
#include "bench_util.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace apxa;
  using namespace apxa::core;
  using namespace apxa::harness;

  bench::JsonSink sink(argc, argv, "t6");
  const SystemParams p{16, 3};
  const double eps = 1e-3;
  const std::vector<SchedKind> scheds{SchedKind::kRandom, SchedKind::kFifo,
                                      SchedKind::kGreedySplit};

  std::printf(
      "T6 — Averaging-rule ablation, async crash model, n = %u, t = %u,\n"
      "split inputs, eps = 1e-3.  'rounds(worst)' is the worst observed number\n"
      "of rounds until the spread reached eps (horizon 40; '>' = never).\n\n",
      p.n, p.t);

  bench::Table tab(
      {"rule", "analytic K", "measured K", "rounds(worst)", "byz-safe"});

  const Averager rules[] = {Averager::kMean, Averager::kMidpoint,
                            Averager::kMedian, Averager::kReduceMidpoint,
                            Averager::kDlpswSync, Averager::kDlpswAsync};

  for (const Averager a : rules) {
    analysis::WorstCaseQuery q;
    q.params = p;
    q.averager = a;
    const double analytic = analysis::worst_one_round_factor(q).worst_factor;

    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kCrashRound;
    cfg.averager = a;
    const auto m = bench::measure_worst_rate_over_inputs(cfg, 6, scheds, 4);

    const Round horizon = 40;
    Round rto = 0;
    for (auto& inputs : bench::adversarial_input_families(p, 0.0, 1.0)) {
      cfg.inputs = std::move(inputs);
      rto = std::max(rto,
                     bench::measure_rounds_to_spread(cfg, horizon, eps, scheds, 2));
    }

    tab.add_row({std::string(averager_name(a)), bench::fmt(analytic),
                 m.measurable ? bench::fmt(m.sustained_min) : "-",
                 rto > horizon ? bench::fmt_over(horizon) : std::to_string(rto),
                 averager_is_byzantine_safe(a) ? "yes" : "no"});
  }
  tab.print();
  sink.add_table("averager_ablation", tab);

  std::printf(
      "\nExpected shape: mean dominates (analytic (n-t)/t = %.2f); midpoint and\n"
      "the byzantine-safe rules cluster near 2; median's analytic worst case is\n"
      "~1 (it can stall under adversarial scheduling, though benign schedulers\n"
      "still converge).\n",
      predicted_factor_crash_async_mean(p.n, p.t));
  return sink.finish();
}
