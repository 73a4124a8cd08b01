// F6 — Vector-valued AA across the harness: cost, rate and latency as the
// dimension grows, on both execution backends.
//
// Coordinate-wise AA sends one vector message per round, so the message
// count is independent of d and only bits grow (linearly); convergence in
// L-infinity matches the 1-D factor exactly.  Three sweeps, all fanned over
// harness::run_many:
//
//   vector_spread_vs_round — per-round L-infinity spread under crash faults
//                            on the greedy scheduler (sim, deterministic);
//   latency_vs_dimension   — sim + thread rows for d in {1, 2, 4, 8, 16}:
//                            virtual-time rounds vs wall-clock seconds, and
//                            the msgs-constant / bits-linear cost shape;
//   byz_laundering         — kVectorByz with equivocators: box validity and
//                            L-infinity agreement survive, at the documented
//                            box-not-convex validity caveat (core/multidim.hpp),
//                            now quantified by the convex-hull diagnostic;
//   box_vs_convex          — the hull-escape attacker (coordinated corner
//                            steering) against kVectorByz vs kVectorConvex
//                            over n = 7..16, t = 1..2, d in {2, 4, 8} on both
//                            backends: per-coordinate laundering stays
//                            box-valid but leaves the honest convex hull,
//                            safe-area averaging (geom/safe_area.hpp) does not;
//   convex_latency_vs_dim  — what convex validity costs: rounds, messages and
//                            finish time of kVectorByz vs kVectorConvex as d
//                            grows, on both backends;
//   convex_rb_vs_quorum    — what view equalization costs and buys: the SAME
//                            equivocation attacker against quorum-collect
//                            kVectorConvex vs RB-collect kVectorConvexRB
//                            (core/collect.hpp) on both backends.  Quorum
//                            collect lets the equivocator split honest views
//                            below the n - t overlap bound; the RB + witness
//                            collect keeps the bound, converges within the
//                            pinned round budget, and pays Theta(n^3)
//                            messages per round for it (the rb/report phase
//                            columns, from net::Metrics::sent_by_tag).
#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "bench_util.hpp"
#include "core/bounds.hpp"
#include "core/multidim.hpp"

int main(int argc, char** argv) {
  using namespace apxa;
  using namespace apxa::core;
  using harness::BackendKind;
  using harness::VectorRunConfig;

  bench::JsonSink sink(argc, argv, "f6");
  const SystemParams p{10, 3};
  const double eps = 1e-3;
  const std::vector<std::uint32_t> dims{1, 2, 4, 8, 16};
  std::printf(
      "F6 — Coordinate-wise AA in R^d (n = %u, t = %u, eps = 1e-3, random\n"
      "inputs in [-5,5]^d), via harness::run_many on both backends.\n\n",
      p.n, p.t);

  auto base_cfg = [&](std::uint32_t d) {
    VectorRunConfig cfg;
    cfg.params = p;
    cfg.dim = d;
    cfg.epsilon = eps;
    cfg.fixed_rounds = rounds_for_bound(5.0, eps, Averager::kMean, p);
    Rng rng(d);
    cfg.inputs = harness::random_vector_inputs(rng, p.n, d, -5.0, 5.0);
    return cfg;
  };

  // --- spread vs round: crash faults, greedy scheduler, simulator ----------
  {
    std::vector<VectorRunConfig> grid;
    for (const std::uint32_t d : dims) {
      VectorRunConfig cfg = base_cfg(d);
      cfg.sched = harness::SchedKind::kGreedySplit;
      Rng rng(100 + d);
      cfg.crashes = adversary::random_crashes(rng, p, p.t, cfg.fixed_rounds);
      grid.push_back(std::move(cfg));
    }
    const auto reports = harness::run_many(grid);

    std::printf("spread vs round (crash faults, greedy scheduler, sim):\n");
    sink.begin_section("vector_spread_vs_round", {"d", "round", "linf_spread"});
    for (std::size_t i = 0; i < reports.size(); ++i) {
      for (std::size_t r = 0; r < reports[i].linf_spread_by_round.size(); ++r) {
        sink.add_row({std::to_string(dims[i]), std::to_string(r),
                      bench::fmt_sci(reports[i].linf_spread_by_round[r])});
      }
      std::printf("  d = %2u: S0 = %s -> S%zu = %s (%zu round entries)\n",
                  dims[i], bench::fmt_sci(reports[i].linf_spread_by_round.front()).c_str(),
                  reports[i].linf_spread_by_round.size() - 1,
                  bench::fmt_sci(reports[i].linf_spread_by_round.back()).c_str(),
                  reports[i].linf_spread_by_round.size());
    }
  }

  // --- latency vs dimension: the same configs on sim AND thread ------------
  {
    std::vector<VectorRunConfig> sim_grid, thread_grid;
    for (const std::uint32_t d : dims) {
      VectorRunConfig cfg = base_cfg(d);
      cfg.backend = BackendKind::kSim;
      sim_grid.push_back(cfg);
      cfg.backend = BackendKind::kThread;
      thread_grid.push_back(std::move(cfg));
    }
    const auto sim_reports = harness::run_many(sim_grid);
    // Thread runs spawn n threads each; serialize the sweep (run_many.hpp).
    const auto thread_reports =
        harness::run_many(thread_grid, {.workers = 1});

    bench::Table tab({"backend", "d", "rounds", "msgs", "bits", "bits/msg",
                      "Linf gap", "box-valid", "finish"});
    auto emit = [&](const char* backend, std::uint32_t d, Round rounds,
                    const harness::VectorRunReport& rep) {
      const double bits = static_cast<double>(rep.metrics.payload_bits());
      tab.add_row({backend, std::to_string(d), std::to_string(rounds),
                   bench::fmt_u(rep.metrics.messages_sent), bench::fmt(bits, 0),
                   bench::fmt(bits / rep.metrics.messages_sent, 1),
                   bench::fmt_sci(rep.worst_linf_gap),
                   rep.box_validity_ok ? "yes" : "NO",
                   bench::fmt(rep.finish_time, 4)});
    };
    for (std::size_t i = 0; i < dims.size(); ++i) {
      emit("sim", dims[i], sim_grid[i].fixed_rounds, sim_reports[i]);
    }
    for (std::size_t i = 0; i < dims.size(); ++i) {
      emit("thread", dims[i], thread_grid[i].fixed_rounds, thread_reports[i]);
    }
    std::printf("\nlatency vs dimension (finish: Delta units on sim, seconds on thread):\n");
    tab.print();
    sink.add_table("latency_vs_dimension", tab);
  }

  // --- byzantine laundering: equivocators, box validity only ---------------
  {
    const SystemParams bp{11, 2};  // n > 5t for the per-coordinate DLPSW rule
    std::vector<VectorRunConfig> grid;
    for (const std::uint32_t d : dims) {
      VectorRunConfig cfg;
      cfg.params = bp;
      cfg.protocol = harness::ProtocolKind::kVectorByz;
      cfg.dim = d;
      cfg.epsilon = eps;
      cfg.fixed_rounds = rounds_for_bound(5.0, eps, Averager::kDlpswAsync, bp);
      Rng rng(200 + d);
      cfg.inputs = harness::random_vector_inputs(rng, bp.n, d, -5.0, 5.0);
      for (std::uint32_t b = 0; b < bp.t; ++b) {
        adversary::ByzSpec s;
        s.who = b;
        s.kind = adversary::ByzKind::kEquivocate;
        s.lo = -50.0;
        s.hi = 50.0;
        s.seed = b + 1;
        cfg.byz.push_back(s);
      }
      grid.push_back(std::move(cfg));
    }
    const auto reports = harness::run_many(grid);

    bench::Table tab({"d", "rounds", "msgs", "Linf gap", "box-valid",
                      "convex-valid", "outside-hull", "agreed"});
    for (std::size_t i = 0; i < reports.size(); ++i) {
      tab.add_row({std::to_string(dims[i]), std::to_string(grid[i].fixed_rounds),
                   bench::fmt_u(reports[i].metrics.messages_sent),
                   bench::fmt_sci(reports[i].worst_linf_gap),
                   reports[i].box_validity_ok ? "yes" : "NO",
                   reports[i].convex_validity_ok ? "yes" : "NO",
                   std::to_string(reports[i].outputs_outside_hull),
                   reports[i].agreement_ok ? "yes" : "NO"});
    }
    std::printf("\nbyzantine laundering (n = %u, t = %u equivocators at +/-50):\n",
                bp.n, bp.t);
    tab.print();
    sink.add_table("byz_laundering", tab);
  }

  // --- box vs convex: the hull-escape attacker on both protocols -----------
  //
  // adversary::ByzKind::kHullEscape steers every coordinate a small margin
  // inside the observed honest maxima: per-coordinate laundering keeps the
  // forged corner (it is inside every coordinate's honest range), so
  // kVectorByz outputs drift toward a box corner OUTSIDE the honest convex
  // hull; kVectorConvex averages through the safe area and discards it.
  // Sweep: n = 7..16, t = 1..2, d in {2, 4, 8}, both backends; kVectorByz
  // rows are restricted to its n > 5t resilience regime.
  {
    const std::vector<std::uint32_t> sweep_dims{2, 4, 8};
    struct Cell {
      const char* proto;
      const char* backend;
      SystemParams p;
      std::uint32_t d = 2;
      std::size_t grid_index = 0;  ///< into sim_grid or thread_grid
    };
    auto hull_escape_cfg = [&](harness::ProtocolKind kind, BackendKind bk,
                               SystemParams sp, std::uint32_t d) {
      VectorRunConfig cfg;
      cfg.params = sp;
      cfg.protocol = kind;
      cfg.backend = bk;
      cfg.dim = d;
      cfg.epsilon = eps;
      cfg.fixed_rounds = 10;
      Rng rng(300 + sp.n * 97 + sp.t * 13 + d);
      cfg.inputs = harness::random_vector_inputs(rng, sp.n, d, -5.0, 5.0);
      for (std::uint32_t b = 0; b < sp.t; ++b) {
        adversary::ByzSpec s;
        s.who = b;
        s.kind = adversary::ByzKind::kHullEscape;
        s.lo = -5.0;
        s.hi = 5.0;
        s.seed = b + 1;
        cfg.byz.push_back(s);
      }
      return cfg;
    };

    std::vector<Cell> cells;
    std::vector<VectorRunConfig> sim_grid, thread_grid;
    for (const bool convex : {true, false}) {
      const auto kind = convex ? harness::ProtocolKind::kVectorConvex
                               : harness::ProtocolKind::kVectorByz;
      for (std::uint32_t t = 1; t <= 2; ++t) {
        for (std::uint32_t n = 7; n <= 16; ++n) {
          if (!convex && n <= 5 * t) continue;  // DLPSW regime only
          for (const std::uint32_t d : sweep_dims) {
            const SystemParams sp{n, t};
            cells.push_back(
                {convex ? "convex" : "byz", "sim", sp, d, sim_grid.size()});
            sim_grid.push_back(hull_escape_cfg(kind, BackendKind::kSim, sp, d));
            cells.push_back(
                {convex ? "convex" : "byz", "thread", sp, d, thread_grid.size()});
            thread_grid.push_back(hull_escape_cfg(kind, BackendKind::kThread, sp, d));
          }
        }
      }
    }
    const auto sim_reports = harness::run_many(sim_grid);
    const auto thread_reports = harness::run_many(thread_grid, {.workers = 1});

    sink.begin_section("box_vs_convex",
                       {"protocol", "backend", "n", "t", "d", "box_valid",
                        "convex_valid", "outside_hull", "linf_gap"});
    struct Agg {
      std::uint32_t runs = 0, box_bad = 0, convex_bad = 0;
      double worst_gap = 0.0;
    };
    std::map<std::pair<std::string, std::string>, Agg> agg;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& rep = cells[i].backend[0] == 's'
                            ? sim_reports[cells[i].grid_index]
                            : thread_reports[cells[i].grid_index];
      sink.add_row({cells[i].proto, cells[i].backend,
                    std::to_string(cells[i].p.n), std::to_string(cells[i].p.t),
                    std::to_string(cells[i].d),
                    rep.box_validity_ok ? "yes" : "NO",
                    rep.convex_validity_ok ? "yes" : "NO",
                    std::to_string(rep.outputs_outside_hull),
                    bench::fmt_sci(rep.worst_linf_gap)});
      Agg& a = agg[{cells[i].proto, cells[i].backend}];
      ++a.runs;
      if (!rep.box_validity_ok) ++a.box_bad;
      if (!rep.convex_validity_ok) ++a.convex_bad;
      a.worst_gap = std::max(a.worst_gap, rep.worst_linf_gap);
    }

    bench::Table tab({"protocol", "backend", "runs", "box-violations",
                      "convex-violations", "worst Linf gap"});
    for (const auto& [key, a] : agg) {
      tab.add_row({key.first, key.second, std::to_string(a.runs),
                   std::to_string(a.box_bad), std::to_string(a.convex_bad),
                   bench::fmt_sci(a.worst_gap)});
    }
    std::printf(
        "\nbox vs convex validity under the hull-escape attacker\n"
        "(n = 7..16, t = 1..2, d in {2,4,8}; t corner-steering attackers):\n");
    tab.print();
  }

  // --- what convex validity costs: latency vs d, byz vs convex -------------
  {
    const SystemParams cp{13, 2};  // n > 5t so both protocols are in regime
    const std::vector<std::uint32_t> sweep_dims{2, 4, 8};
    struct Cell {
      const char* proto;
      const char* backend;
      std::uint32_t d = 2;
      std::size_t grid_index = 0;  ///< into sim_grid or thread_grid
    };
    std::vector<Cell> cells;
    std::vector<VectorRunConfig> sim_grid, thread_grid;
    for (const bool convex : {false, true}) {
      for (const std::uint32_t d : sweep_dims) {
        VectorRunConfig cfg;
        cfg.params = cp;
        cfg.protocol = convex ? harness::ProtocolKind::kVectorConvex
                              : harness::ProtocolKind::kVectorByz;
        cfg.dim = d;
        cfg.epsilon = eps;
        cfg.fixed_rounds = 10;
        Rng rng(400 + d);
        cfg.inputs = harness::random_vector_inputs(rng, cp.n, d, -5.0, 5.0);
        for (std::uint32_t b = 0; b < cp.t; ++b) {
          adversary::ByzSpec s;
          s.who = b;
          s.kind = adversary::ByzKind::kHullEscape;
          s.lo = -5.0;
          s.hi = 5.0;
          s.seed = b + 1;
          cfg.byz.push_back(s);
        }
        cfg.backend = BackendKind::kSim;
        cells.push_back({convex ? "convex" : "byz", "sim", d, sim_grid.size()});
        sim_grid.push_back(cfg);
        cfg.backend = BackendKind::kThread;
        cells.push_back(
            {convex ? "convex" : "byz", "thread", d, thread_grid.size()});
        thread_grid.push_back(std::move(cfg));
      }
    }
    const auto sim_reports = harness::run_many(sim_grid);
    const auto thread_reports = harness::run_many(thread_grid, {.workers = 1});

    bench::Table tab({"protocol", "backend", "d", "rounds", "msgs", "Linf gap",
                      "convex-valid", "finish"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& rep = cells[i].backend[0] == 's'
                            ? sim_reports[cells[i].grid_index]
                            : thread_reports[cells[i].grid_index];
      tab.add_row({cells[i].proto, cells[i].backend, std::to_string(cells[i].d),
                   "10", bench::fmt_u(rep.metrics.messages_sent),
                   bench::fmt_sci(rep.worst_linf_gap),
                   rep.convex_validity_ok ? "yes" : "NO",
                   bench::fmt(rep.finish_time, 4)});
    }
    std::printf(
        "\nconvex-validity cost (n = %u, t = %u hull-escape attackers,\n"
        "finish: Delta units on sim, seconds on thread):\n",
        cp.n, cp.t);
    tab.print();
    sink.add_table("convex_latency_vs_dimension", tab);
  }

  // --- view equalization: convex quorum-collect vs RB-collect --------------
  //
  // t equivocators per run, values inside the honest range (the nastiest
  // placement for view overlap: nothing to trim, every forged value is
  // plausible).  Configs sit in the certified safe-area regime for the view
  // size m = n - t (m >= (d+2)t + 1), where equalized safe-midpoint
  // averaging contracts at the textbook rate.
  {
    struct Cfg {
      std::uint32_t n, t, d;
    };
    const std::vector<Cfg> sweep{{7, 1, 2}, {11, 2, 2}, {8, 1, 3}};
    const Round budget = 16;
    struct Cell {
      const char* proto;
      const char* backend;
      Cfg c;
      std::size_t grid_index = 0;  ///< into sim_grid or thread_grid
    };
    std::vector<Cell> cells;
    std::vector<VectorRunConfig> sim_grid, thread_grid;
    for (const bool rb : {false, true}) {
      for (const Cfg& c : sweep) {
        VectorRunConfig cfg;
        cfg.params = {c.n, c.t};
        cfg.protocol = rb ? harness::ProtocolKind::kVectorConvexRB
                          : harness::ProtocolKind::kVectorConvex;
        cfg.dim = c.d;
        cfg.epsilon = eps;
        cfg.fixed_rounds = budget;
        Rng rng(500 + c.n * 97 + c.t * 13 + c.d);
        cfg.inputs = harness::random_vector_inputs(rng, c.n, c.d, -5.0, 5.0);
        for (std::uint32_t b = 0; b < c.t; ++b) {
          adversary::ByzSpec s;
          s.who = b;
          s.kind = adversary::ByzKind::kEquivocate;
          s.lo = -5.0;
          s.hi = 5.0;
          s.seed = b + 1;
          cfg.byz.push_back(s);
        }
        cfg.backend = BackendKind::kSim;
        cells.push_back({rb ? "rb" : "quorum", "sim", c, sim_grid.size()});
        sim_grid.push_back(cfg);
        cfg.backend = BackendKind::kThread;
        cells.push_back({rb ? "rb" : "quorum", "thread", c, thread_grid.size()});
        thread_grid.push_back(std::move(cfg));
      }
    }
    const auto sim_reports = harness::run_many(sim_grid);
    const auto thread_reports = harness::run_many(thread_grid, {.workers = 1});

    bench::Table tab({"protocol", "backend", "n", "t", "d", "rounds_to_eps",
                      "msgs", "rb_msgs", "reports", "overlap_min", "overlap_ok",
                      "convex_valid", "linf_gap"});
    for (const auto& cell : cells) {
      const auto& rep = cell.backend[0] == 's' ? sim_reports[cell.grid_index]
                                               : thread_reports[cell.grid_index];
      tab.add_row(
          {cell.proto, cell.backend, std::to_string(cell.c.n),
           std::to_string(cell.c.t), std::to_string(cell.c.d),
           rep.reached_eps ? std::to_string(rep.rounds_to_eps) : "never",
           bench::fmt_u(rep.metrics.messages_sent),
           bench::fmt_u(rep.msgs_rb_send + rep.msgs_rb_echo + rep.msgs_rb_ready),
           bench::fmt_u(rep.msgs_report), std::to_string(rep.view_overlap_min),
           rep.view_overlap_ok ? "yes" : "NO",
           rep.convex_validity_ok ? "yes" : "NO",
           bench::fmt_sci(rep.worst_linf_gap)});
    }
    std::printf(
        "\nview equalization: convex quorum-collect vs RB-collect under t\n"
        "equivocators (eps = 1e-3, %u-round budget; overlap bound n - t):\n",
        budget);
    tab.print();
    sink.add_table("convex_rb_vs_quorum", tab);
  }

  std::printf(
      "\nExpected shape: msgs constant in d; bits/msg ~ 8d + header; the\n"
      "L-infinity gap stays below eps for every d on BOTH backends (each\n"
      "coordinate shrinks at the 1-D rate); per-coordinate byzantine\n"
      "laundering keeps outputs inside the honest bounding box but the\n"
      "hull-escape attacker walks them out of the honest CONVEX hull\n"
      "(box-valid, convex-invalid); kVectorConvex closes that gap with\n"
      "safe-area averaging (geom/safe_area.hpp) at a per-round LP cost and\n"
      "message counts identical to kVectorByz.\n");
  return sink.finish();
}
