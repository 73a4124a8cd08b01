// F1 — Spread vs round (the convergence curves).
//
// Geometric decay: on a log scale each protocol's curve is a straight line
// whose slope is its convergence factor.  Printed as CSV-style series so the
// figure can be re-plotted directly.
#include <cstdio>

#include "bench_util.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace apxa;
  using namespace apxa::core;
  using namespace apxa::harness;

  bench::JsonSink sink(argc, argv, "f1");
  std::printf(
      "F1 — Correct-party spread at each round entry (n = 16, split inputs).\n"
      "series: protocol/scheduler; columns: round, spread.\n\n");
  std::printf("series,round,spread\n");
  sink.begin_section("spread_vs_round", {"series", "round", "spread"});

  struct Series {
    const char* name;
    ProtocolKind kind;
    SystemParams p;
    Averager avg;
    SchedKind sched;
  };
  const Series series[] = {
      {"crash-mean/random", ProtocolKind::kCrashRound, {16, 3}, Averager::kMean,
       SchedKind::kRandom},
      {"crash-mean/greedy", ProtocolKind::kCrashRound, {16, 3}, Averager::kMean,
       SchedKind::kGreedySplit},
      {"crash-midpoint/greedy", ProtocolKind::kCrashRound, {16, 3},
       Averager::kMidpoint, SchedKind::kGreedySplit},
      {"byz-dlpsw/greedy", ProtocolKind::kByzRound, {16, 3}, Averager::kDlpswAsync,
       SchedKind::kGreedySplit},
      {"witness/greedy", ProtocolKind::kWitness, {16, 5}, Averager::kReduceMidpoint,
       SchedKind::kGreedySplit},
  };

  // All five series sweep in parallel; reports come back in series order.
  std::vector<RunConfig> grid;
  for (const auto& s : series) {
    RunConfig cfg;
    cfg.params = s.p;
    cfg.protocol = s.kind;
    cfg.averager = s.avg;
    cfg.mode = TerminationMode::kLive;
    cfg.fixed_rounds = 10;  // horizon
    cfg.sched = s.sched;
    // Ramp inputs: non-degenerate decay for every rule (symmetric splits
    // collapse midpoint-style rules to zero spread in one round).
    cfg.inputs = linear_inputs(s.p.n, 0.0, 1.0);
    if (s.kind != ProtocolKind::kCrashRound) {
      for (std::uint32_t i = 0; i < s.p.t; ++i) {
        adversary::ByzSpec b;
        b.who = i;
        b.kind = adversary::ByzKind::kSpoiler;
        b.seed = i + 1;
        cfg.byz.push_back(b);
      }
    }
    grid.push_back(std::move(cfg));
  }
  const auto reports = harness::run_many(grid);
  for (std::size_t si = 0; si < reports.size(); ++si) {
    const auto& rep = reports[si];
    for (std::size_t r = 0; r < rep.spread_by_round.size(); ++r) {
      std::printf("%s,%zu,%.3e\n", series[si].name, r, rep.spread_by_round[r]);
      sink.add_row({series[si].name, std::to_string(r),
                    bench::fmt_sci(rep.spread_by_round[r], 3)});
    }
  }

  std::printf(
      "\nExpected shape: straight lines on a log scale; crash-mean steepest\n"
      "(factor (n-t)/t ~ 4.3 at n=16, t=3), halving-style curves at slope 2.\n");
  return sink.finish();
}
