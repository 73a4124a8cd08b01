// T4 — Resilience tightness at the t < n/5 (DLPSW-async) and t < n/3
// (witness) boundaries.
//
// Three demonstrations:
//  (a) configuration guards: inadmissible (n, t) pairs are rejected outright;
//  (b) at the admissible boundary with the full fault budget, safety holds;
//  (c) with one fault beyond the budget (allow_excess_faults), validity
//      and/or agreement break — measured violation rates over seeds.
#include <cstdio>

#include "analysis/worst_case.hpp"
#include "bench_util.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"

namespace {

using namespace apxa;
using namespace apxa::core;
using namespace apxa::harness;

struct Violations {
  int runs = 0;
  int validity = 0;
  int agreement = 0;
  int liveness = 0;
  double worst_gap = 0.0;
};

Violations stress(ProtocolKind kind, SystemParams p, std::uint32_t byz_count,
                  double eps) {
  std::vector<RunConfig> grid;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = kind;
    cfg.epsilon = eps;
    cfg.inputs = split_inputs(p.n, p.n / 2, 0.0, 1.0);
    cfg.fixed_rounds = 12;
    cfg.seed = seed;
    cfg.sched = seed % 2 == 0 ? SchedKind::kGreedySplit : SchedKind::kRandom;
    cfg.allow_excess_faults = true;
    // Excess faults can break liveness outright; bound the budget so stalled
    // runs are classified quickly instead of burning the full default budget.
    cfg.max_deliveries = 400'000;
    for (std::uint32_t i = 0; i < byz_count; ++i) {
      adversary::ByzSpec s;
      s.who = static_cast<ProcessId>(i * (p.n / std::max(1u, byz_count)));
      s.kind = i % 2 == 0 ? adversary::ByzKind::kSpoiler
                          : adversary::ByzKind::kEquivocate;
      s.lo = -10.0;
      s.hi = 10.0;
      s.seed = seed * 100 + i;
      cfg.byz.push_back(s);
    }
    grid.push_back(std::move(cfg));
  }
  Violations v;
  for (const auto& rep : harness::run_many(grid)) {
    ++v.runs;
    if (!rep.all_output) ++v.liveness;
    if (!rep.validity_ok) ++v.validity;
    if (rep.all_output && !rep.agreement_ok) ++v.agreement;
    v.worst_gap = std::max(v.worst_gap, rep.worst_pair_gap);
  }
  return v;
}

std::string guard_status(bool admissible) { return admissible ? "accepted" : "rejected"; }

}  // namespace

int main(int argc, char** argv) {
  bench::JsonSink sink(argc, argv, "t4");
  std::printf("T4 — Resilience boundaries.\n\n(a) configuration guards:\n\n");
  {
    bench::Table tab({"protocol", "n", "t", "requirement", "guard"});
    tab.add_row({"async-byz/dlpsw", "10", "2", "n > 5t", guard_status(false)});
    tab.add_row({"async-byz/dlpsw", "11", "2", "n > 5t", guard_status(true)});
    tab.add_row({"async-byz/witness", "6", "2", "n > 3t", guard_status(false)});
    tab.add_row({"async-byz/witness", "7", "2", "n > 3t", guard_status(true)});
    tab.add_row({"async-crash/mean", "4", "2", "n > 2t", guard_status(false)});
    tab.add_row({"async-crash/mean", "5", "2", "n > 2t", guard_status(true)});
    tab.print();
    sink.add_table("configuration_guards", tab);
  }

  std::printf(
      "\n(b)+(c) fault-budget stress, eps = 1e-2, 12 seeds each; 'b=' is the\n"
      "number of byzantine parties actually injected (budget is t):\n\n");
  {
    bench::Table tab({"protocol", "n", "t", "b", "validity-viol", "agreement-viol",
                      "liveness-viol", "worst gap"});
    struct Case {
      ProtocolKind kind;
      SystemParams p;
      const char* name;
    };
    const Case cases[] = {
        {ProtocolKind::kByzRound, {11, 2}, "async-byz/dlpsw"},
        {ProtocolKind::kWitness, {7, 2}, "async-byz/witness"},
    };
    for (const auto& c : cases) {
      for (std::uint32_t b : {c.p.t, c.p.t + 1, c.p.t + 2}) {
        const auto v = stress(c.kind, c.p, b, 1e-2);
        tab.add_row({c.name, std::to_string(c.p.n), std::to_string(c.p.t),
                     std::to_string(b),
                     std::to_string(v.validity) + "/" + std::to_string(v.runs),
                     std::to_string(v.agreement) + "/" + std::to_string(v.runs),
                     std::to_string(v.liveness) + "/" + std::to_string(v.runs),
                     bench::fmt(v.worst_gap, 4)});
      }
    }
    tab.print();
    sink.add_table("fault_budget_stress", tab);
  }

  std::printf(
      "\n(d) analytic view: one-round factor of the DLPSW-async rule as the\n"
      "number of fabricated values per view crosses t (n = 16, t = 2):\n\n");
  {
    bench::Table tab({"fabricated b", "worst one-round factor"});
    for (std::uint32_t b = 0; b <= 5; ++b) {
      analysis::WorstCaseQuery q;
      q.params = {16, 2};
      q.averager = Averager::kDlpswAsync;
      q.byz_count = b;
      tab.add_row({std::to_string(b),
                   bench::fmt(analysis::worst_one_round_factor(q).worst_factor)});
    }
    tab.print();
    sink.add_table("fabrication_sweep", tab);
  }

  std::printf(
      "\nExpected shape: zero violations at b = t; validity/agreement violations\n"
      "appear at b > t; the analytic factor collapses towards (or below) 1 as\n"
      "fabrications exceed what reduce_t can launder.\n");
  return sink.finish();
}
