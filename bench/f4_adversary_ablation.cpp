// F4 — Adversary-strategy ablation (async crash model, mean rule).
//
// How close do implementable schedulers get to the analytic one-round
// optimum?  Also: the crash-timing attack (partial multicasts targeted at one
// camp, delays biased the same way) vs pure delay scheduling.
#include <cstdio>

#include "adversary/crash_plan.hpp"
#include "analysis/worst_case.hpp"
#include "bench_util.hpp"
#include "core/bounds.hpp"
#include "harness/harness.hpp"

int main(int argc, char** argv) {
  using namespace apxa;
  using namespace apxa::core;
  using namespace apxa::harness;

  bench::JsonSink sink(argc, argv, "f4");
  const SystemParams p{16, 3};
  std::printf(
      "F4 — Scheduler/adversary ablation, async-crash/mean, n = %u, t = %u.\n"
      "sustained = worst geometric-mean factor over 8 seeds; smaller = stronger\n"
      "adversary.  Analytic one-round optimum shown last.\n\n",
      p.n, p.t);

  bench::Table tab({"adversary", "sustained K", "per-round min K"});

  auto run_with = [&](SchedKind sched, bool with_crashes,
                      std::uint64_t seeds) -> analysis::RateSummary {
    std::vector<RunConfig> grid;
    for (auto& family : bench::adversarial_input_families(p, 0.0, 1.0)) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      RunConfig cfg;
      cfg.params = p;
      cfg.protocol = ProtocolKind::kCrashRound;
      cfg.mode = TerminationMode::kLive;
      cfg.fixed_rounds = 5;
      cfg.sched = sched;
      cfg.seed = seed;
      cfg.inputs = family;
      if (with_crashes) {
        // Crash-timing attack: victims straddle the camp boundary (so both
        // camps stay populated) and each finishes round 0 for the opposite
        // camp only — the partial multicast skews views maximally.
        std::vector<ProcessId> low, high;
        for (ProcessId q = 0; q < p.n; ++q) (q < p.n / 2 ? low : high).push_back(q);
        const ProcessId victims[] = {0, static_cast<ProcessId>(p.n / 2),
                                     static_cast<ProcessId>(p.n - 1)};
        for (std::uint32_t i = 0; i < p.t && i < 3; ++i) {
          const bool victim_is_low = victims[i] < p.n / 2;
          cfg.crashes.push_back(adversary::partial_multicast_crash(
              p, victims[i], 0, victim_is_low ? high : low));
        }
      }
      grid.push_back(std::move(cfg));
    }
    }
    std::vector<analysis::RateSummary> all;
    for (const auto& rep : harness::run_many(grid)) {
      all.push_back(analysis::summarize_rates(rep.spread_by_round));
    }
    return analysis::worst_of(all);
  };

  const struct {
    const char* name;
    SchedKind sched;
    bool crashes;
  } rows[] = {
      {"fifo (benign)", SchedKind::kFifo, false},
      {"random", SchedKind::kRandom, false},
      {"targeted-random", SchedKind::kTargeted, false},
      {"greedy split-brain", SchedKind::kGreedySplit, false},
      {"random + crash-timing", SchedKind::kRandom, true},
      {"greedy + crash-timing", SchedKind::kGreedySplit, true},
  };
  for (const auto& r : rows) {
    const auto s = run_with(r.sched, r.crashes, 8);
    tab.add_row({r.name, s.measurable ? bench::fmt(s.sustained) : "inst",
                 s.measurable ? bench::fmt(s.per_round_min) : "inst"});
  }

  analysis::WorstCaseQuery q;
  q.params = p;
  q.averager = Averager::kMean;
  const auto wc = analysis::worst_one_round_factor(q);
  tab.add_row({"ANALYTIC OPTIMUM", bench::fmt(wc.worst_factor),
               bench::fmt(wc.worst_factor)});
  tab.print();
  sink.add_table("adversary_ablation", tab);

  std::printf(
      "\nReading: greedy split-brain scheduling alone reaches the analytic\n"
      "optimum (n-t)/t = %.2f exactly — and adding crash-timing does NOT go\n"
      "lower.  That is the model speaking: in asynchrony a receiver only waits\n"
      "for n-t values anyway, so everything a crashed sender can withhold the\n"
      "scheduler could already omit; crashes add transient skew at best (they\n"
      "drag the benign random schedule down to the optimum) and often just\n"
      "collapse the spread early.  Contrast the synchronous rows of T1, where\n"
      "crash partial-multicasts are the adversary's only lever.\n",
      predicted_factor_crash_async_mean(p.n, p.t));
  return sink.finish();
}
