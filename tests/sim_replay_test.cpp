// Serial simulator replay: the SAME configuration run twice must produce
// reports BYTE-identical to each other — every verdict, metric counter,
// trace-derived spread and finish time, and the protocol-event trace field
// by field — for every protocol family under every scheduler.  This is the
// determinism contract of net::SimNetwork's single event loop, pinned at the
// harness level where the router, batching, crash-budget and trace layers
// all sit on top of it.  Also covers the budget cut, run_until_done's
// definition, and the serial-only stubs kept for the frozen benchmark.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adversary/byzantine.hpp"
#include "adversary/crash_plan.hpp"
#include "core/bounds.hpp"
#include "crash_round.hpp"
#include "exec/sim_backend.hpp"
#include "harness/harness.hpp"
#include "harness/session.hpp"
#include "net/sim.hpp"
#include "obs/trace.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa::harness {
namespace {

// --- exact-equality comparators ---------------------------------------------
//
// EXPECT_EQ on doubles (not EXPECT_DOUBLE_EQ): bit-identity is the claim, so
// even a 1-ulp drift is a bug.

void expect_metrics_eq(const net::Metrics& a, const net::Metrics& b) {
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.sent_by, b.sent_by);
  EXPECT_EQ(a.bytes_by, b.bytes_by);
  EXPECT_EQ(a.sent_by_tag, b.sent_by_tag);
  EXPECT_EQ(a.sent_by_round, b.sent_by_round);
  EXPECT_EQ(a.sent_by_instance, b.sent_by_instance);
}

void expect_report_eq(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.all_output, b.all_output);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.validity_ok, b.validity_ok);
  EXPECT_EQ(a.worst_pair_gap, b.worst_pair_gap);
  EXPECT_EQ(a.agreement_ok, b.agreement_ok);
  EXPECT_EQ(a.finish_time, b.finish_time);
  expect_metrics_eq(a.metrics, b.metrics);
  EXPECT_EQ(a.spread_by_round, b.spread_by_round);
  EXPECT_EQ(a.max_round_reached, b.max_round_reached);
  EXPECT_EQ(a.round_factors, b.round_factors);
}

void expect_vector_report_eq(const VectorRunReport& a, const VectorRunReport& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.all_output, b.all_output);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.box_validity_ok, b.box_validity_ok);
  EXPECT_EQ(a.convex_validity_ok, b.convex_validity_ok);
  EXPECT_EQ(a.outputs_outside_hull, b.outputs_outside_hull);
  EXPECT_EQ(a.worst_linf_gap, b.worst_linf_gap);
  EXPECT_EQ(a.worst_l2_gap, b.worst_l2_gap);
  EXPECT_EQ(a.agreement_ok, b.agreement_ok);
  EXPECT_EQ(a.finish_time, b.finish_time);
  expect_metrics_eq(a.metrics, b.metrics);
  EXPECT_EQ(a.linf_spread_by_round, b.linf_spread_by_round);
  EXPECT_EQ(a.max_round_reached, b.max_round_reached);
  EXPECT_EQ(a.rounds_to_eps, b.rounds_to_eps);
  EXPECT_EQ(a.reached_eps, b.reached_eps);
  EXPECT_EQ(a.view_overlap_measured, b.view_overlap_measured);
  EXPECT_EQ(a.view_overlap_min, b.view_overlap_min);
  EXPECT_EQ(a.view_overlap_ok, b.view_overlap_ok);
  EXPECT_EQ(a.msgs_value, b.msgs_value);
  EXPECT_EQ(a.msgs_rb_send, b.msgs_rb_send);
  EXPECT_EQ(a.msgs_rb_echo, b.msgs_rb_echo);
  EXPECT_EQ(a.msgs_rb_ready, b.msgs_rb_ready);
  EXPECT_EQ(a.msgs_report, b.msgs_report);
}

void expect_event_eq(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.party, b.party);
  EXPECT_EQ(a.peer, b.peer);
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.vtime, b.vtime);
}

// Tracing is part of the replay claim: the protocol-event stream
// (send/deliver/drop/crash/round-advance/view-freeze/instance-finish) of the
// replay must equal the first run's, field by field.
void expect_trace_eq(const obs::TraceSink& a, const obs::TraceSink& b) {
  const auto ea = obs::protocol_events(a.snapshot());
  const auto eb = obs::protocol_events(b.snapshot());
  ASSERT_FALSE(ea.empty());
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    SCOPED_TRACE(i);
    expect_event_eq(ea[i], eb[i]);
  }
  EXPECT_EQ(obs::protocol_digest(ea), obs::protocol_digest(eb));
}

constexpr SchedKind kAllScheds[] = {SchedKind::kRandom, SchedKind::kFifo,
                                    SchedKind::kGreedySplit, SchedKind::kTargeted,
                                    SchedKind::kClique};

const char* sched_name(SchedKind s) {
  switch (s) {
    case SchedKind::kRandom: return "random";
    case SchedKind::kFifo: return "fifo";
    case SchedKind::kGreedySplit: return "greedy_split";
    case SchedKind::kTargeted: return "targeted";
    case SchedKind::kClique: return "clique";
  }
  return "?";
}

void expect_replay_identical(RunConfig cfg) {
  cfg.backend = BackendKind::kSim;
  obs::TraceSink first_trace;
  cfg.trace = &first_trace;
  const RunReport first = run(cfg);
  obs::TraceSink replay_trace;
  cfg.trace = &replay_trace;
  const RunReport replay = run(cfg);
  EXPECT_TRUE(first.all_output);
  expect_report_eq(first, replay);
  expect_trace_eq(first_trace, replay_trace);
}

void expect_replay_identical(VectorRunConfig cfg) {
  cfg.backend = BackendKind::kSim;
  obs::TraceSink first_trace;
  cfg.trace = &first_trace;
  const VectorRunReport first = run(cfg);
  obs::TraceSink replay_trace;
  cfg.trace = &replay_trace;
  const VectorRunReport replay = run(cfg);
  EXPECT_TRUE(first.all_output);
  expect_vector_report_eq(first, replay);
  expect_trace_eq(first_trace, replay_trace);
}

// --- scalar protocol x scheduler matrix -------------------------------------

RunConfig crash_round_cfg(SchedKind sched) {
  const SystemParams p{5, 1};
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.fixed_rounds = 6;
  cfg.epsilon = 1e-2;
  cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  cfg.sched = sched;
  cfg.seed = 11;
  cfg.crashes = {adversary::partial_multicast_crash(p, 4, /*full_rounds=*/1,
                                                    {0, 1})};
  return cfg;
}

TEST(SimReplay, CrashRoundAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    expect_replay_identical(crash_round_cfg(sched));
  }
}

TEST(SimReplay, ByzRoundAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{6, 1};  // n > 5t for the DLPSW-async protocol
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kByzRound;
    cfg.fixed_rounds = 8;
    cfg.epsilon = 5e-2;
    cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
    cfg.sched = sched;
    cfg.seed = 13;
    adversary::ByzSpec b;
    b.who = 0;
    b.kind = adversary::ByzKind::kEquivocate;
    b.lo = -5.0;
    b.hi = 5.0;
    cfg.byz = {b};
    expect_replay_identical(cfg);
  }
}

TEST(SimReplay, WitnessAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{4, 1};  // n > 3t for the witness technique
    RunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kWitness;
    cfg.fixed_rounds = 3;
    cfg.epsilon = 0.2;
    cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
    cfg.sched = sched;
    cfg.seed = 17;
    adversary::ByzSpec b;
    b.who = 3;
    b.kind = adversary::ByzKind::kSilent;
    cfg.byz = {b};
    expect_replay_identical(cfg);
  }
}

// --- vector protocol x scheduler matrix -------------------------------------

TEST(SimReplay, VectorCrashAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{5, 1};
    VectorRunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kVectorCrash;
    cfg.dim = 2;
    cfg.fixed_rounds = 8;
    cfg.epsilon = 1e-2;
    Rng rng(17);
    cfg.inputs = random_vector_inputs(rng, p.n, 2, 0.0, 1.0);
    cfg.sched = sched;
    cfg.seed = 19;
    cfg.crashes = {adversary::partial_multicast_crash(p, 4, /*full_rounds=*/1,
                                                      {0, 1})};
    expect_replay_identical(cfg);
  }
}

TEST(SimReplay, VectorByzAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{6, 1};
    VectorRunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kVectorByz;
    cfg.dim = 2;
    cfg.fixed_rounds = 8;
    cfg.epsilon = 5e-2;
    cfg.inputs = corner_split_inputs(p.n, 2, p.n / 2, 0.0, 1.0);
    cfg.sched = sched;
    cfg.seed = 23;
    adversary::ByzSpec b;
    b.who = 0;
    b.kind = adversary::ByzKind::kEquivocate;
    b.lo = -5.0;
    b.hi = 5.0;
    cfg.byz = {b};
    expect_replay_identical(cfg);
  }
}

TEST(SimReplay, VectorConvexAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{7, 1};  // n > 3t
    VectorRunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kVectorConvex;
    cfg.dim = 2;
    cfg.fixed_rounds = 6;
    cfg.epsilon = 1e-2;
    Rng rng(31);
    cfg.inputs = random_vector_inputs(rng, p.n, 2, -5.0, 5.0);
    cfg.sched = sched;
    cfg.seed = 29;
    adversary::ByzSpec b;
    b.who = 0;
    b.kind = adversary::ByzKind::kHullEscape;
    b.lo = -5.0;
    b.hi = 5.0;
    b.seed = 1;
    cfg.byz = {b};
    expect_replay_identical(cfg);
  }
}

TEST(SimReplay, VectorConvexRbAllSchedulers) {
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    const SystemParams p{7, 1};  // n > 3t; Theta(n^3) traffic per round
    VectorRunConfig cfg;
    cfg.params = p;
    cfg.protocol = ProtocolKind::kVectorConvexRB;
    cfg.dim = 2;
    cfg.fixed_rounds = 4;
    cfg.epsilon = 1e-2;
    Rng rng(37);
    cfg.inputs = random_vector_inputs(rng, p.n, 2, -5.0, 5.0);
    cfg.sched = sched;
    cfg.seed = 37;
    expect_replay_identical(cfg);
  }
}

// --- event-loop properties ----------------------------------------------------

TEST(SimReplay, SeedChangesTheSchedule) {
  // Guards the matrix above against passing vacuously: a different seed
  // must really produce a different execution under the random scheduler.
  auto digest = [](std::uint64_t seed) {
    auto cfg = crash_round_cfg(SchedKind::kRandom);
    cfg.seed = seed;
    obs::TraceSink trace;
    cfg.trace = &trace;
    const RunReport rep = run(cfg);
    EXPECT_TRUE(rep.all_output);
    return obs::protocol_digest(obs::protocol_events(trace.snapshot()));
  };
  EXPECT_EQ(digest(11), digest(11));
  EXPECT_NE(digest(11), digest(12));
}

TEST(SimReplay, TraceSinkDoesNotPerturbTheRun) {
  // Trace hooks fire inline inside upcalls; attaching a sink must change
  // nothing the run computes.
  for (const SchedKind sched : kAllScheds) {
    SCOPED_TRACE(sched_name(sched));
    auto cfg = crash_round_cfg(sched);
    const RunReport bare = run(cfg);
    obs::TraceSink trace;
    cfg.trace = &trace;
    const RunReport traced = run(cfg);
    expect_report_eq(bare, traced);
    EXPECT_GT(trace.recorded(), 0u);
  }
}

TEST(SimReplay, BudgetCutIsAPrefixOfTheFullRun) {
  // A delivery budget stops the loop between two deliveries: the budgeted
  // run's protocol trace is exactly the first events of the unbudgeted run,
  // and a replay with the same budget cuts at the same event.
  auto cfg = crash_round_cfg(SchedKind::kRandom);
  cfg.fixed_rounds = 50;  // never finishes inside the budgets below
  obs::TraceSink full_trace;
  cfg.trace = &full_trace;
  const RunReport full = run(cfg);
  EXPECT_TRUE(full.all_output);
  const auto full_events = obs::protocol_events(full_trace.snapshot());
  ASSERT_EQ(full_trace.dropped(), 0u);

  for (const std::uint64_t budget : {37u, 138u, 517u}) {
    SCOPED_TRACE(budget);
    cfg.max_deliveries = budget;
    obs::TraceSink cut_trace;
    cfg.trace = &cut_trace;
    const RunReport cut = run(cfg);
    EXPECT_EQ(cut.status, net::RunStatus::kBudgetExhausted);
    EXPECT_FALSE(cut.all_output);

    const auto cut_events = obs::protocol_events(cut_trace.snapshot());
    std::uint64_t deliveries = 0;
    for (const auto& e : cut_events) {
      if (e.kind == obs::EventKind::kDeliver) ++deliveries;
    }
    EXPECT_EQ(deliveries, budget);
    ASSERT_LT(cut_events.size(), full_events.size());
    for (std::size_t i = 0; i < cut_events.size(); ++i) {
      SCOPED_TRACE(i);
      expect_event_eq(cut_events[i], full_events[i]);
    }

    obs::TraceSink replay_trace;
    cfg.trace = &replay_trace;
    expect_report_eq(cut, run(cfg));
    expect_trace_eq(cut_trace, replay_trace);
  }
}

TEST(SimReplay, RunUntilDoneIsRunUntilOverCorrectOutputs) {
  // run_until_done with the default probe is run_until over "every correct
  // party has output" — same stopping point, same outputs, same duplication
  // draws — including when a party crashes mid-run and drops out of the
  // conjunction.
  const SystemParams p{5, 1};
  auto make_net = [&p] {
    auto net = std::make_unique<net::SimNetwork>(
        p, std::make_unique<sched::RandomScheduler>(5));
    net->enable_duplication(0.5, 7);
    net->crash_after_sends(2, 9);
    add_parties(*net, crash_round(p, id_inputs(p.n), 4));
    net->start();
    return net;
  };
  auto by_done = make_net();
  EXPECT_EQ(by_done->run_until_done({}), net::RunStatus::kPredicateSatisfied);
  auto by_pred = make_net();
  net::SimNetwork& ref = *by_pred;
  EXPECT_EQ(ref.run_until([&ref] { return ref.all_correct_output(); }),
            net::RunStatus::kPredicateSatisfied);

  EXPECT_EQ(by_done->status(2), net::PartyStatus::kCrashed);
  EXPECT_EQ(by_done->now(), by_pred->now());
  EXPECT_EQ(by_done->correct_vector_outputs(), by_pred->correct_vector_outputs());
  EXPECT_EQ(by_done->correct_vector_outputs().size(), p.n - 1);
  expect_metrics_eq(by_done->metrics(), by_pred->metrics());
}

// --- multiplexed sessions -----------------------------------------------------

TEST(SimReplay, MultiplexedSessionWithBatchingAndCrashes) {
  // The full service stack at once: K instances behind router processes,
  // per-destination batching, a session-level crash budget counted in
  // logical sends — every per-instance verdict, the session-wide transport
  // metrics and the trace (with its kInstanceFinish events) replay exactly.
  auto session_report = [](obs::TraceSink* trace) {
    std::vector<RunConfig> cfgs;
    for (std::uint64_t k = 0; k < 6; ++k) {
      const SystemParams p{5, 1};
      RunConfig cfg;
      cfg.params = p;
      cfg.protocol = ProtocolKind::kCrashRound;
      cfg.fixed_rounds = 4 + (k % 3);
      cfg.epsilon = 1e-2;
      cfg.inputs = linear_inputs(p.n, 0.0, 1.0 + 0.25 * static_cast<double>(k));
      cfg.sched = SchedKind::kRandom;
      cfg.seed = 41;
      cfgs.push_back(cfg);
    }
    SessionOptions opts;
    opts.batching = 8;
    opts.force_multiplex = true;
    opts.trace = trace;
    adversary::CrashSpec s;
    s.who = 4;
    s.after_sends = 30;  // logical sends across all 6 instances
    opts.crashes = {s};
    return run_session(cfgs, opts);
  };
  obs::TraceSink first_trace;
  obs::TraceSink replay_trace;
  const SessionReport first = session_report(&first_trace);
  const SessionReport replay = session_report(&replay_trace);
  EXPECT_TRUE(first.all_output);
  expect_trace_eq(first_trace, replay_trace);
  EXPECT_EQ(first.status, replay.status);
  EXPECT_EQ(first.all_output, replay.all_output);
  EXPECT_EQ(first.finish_times, replay.finish_times);
  EXPECT_EQ(first.msgs_per_packet, replay.msgs_per_packet);
  expect_metrics_eq(first.metrics, replay.metrics);
  ASSERT_EQ(first.scalar_reports.size(), replay.scalar_reports.size());
  for (std::size_t i = 0; i < first.scalar_reports.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(first.scalar_reports[i].has_value());
    ASSERT_TRUE(replay.scalar_reports[i].has_value());
    expect_report_eq(*first.scalar_reports[i], *replay.scalar_reports[i]);
  }
}

TEST(SimReplay, LargeSessionDecidesEveryInstanceAndReplays) {
  // A session as wide as the benchmark's runs (K = 16 heterogeneous
  // instances): the session stops only once every router has decided every
  // instance, each instance finishes at a finite time, and the whole session
  // replays bit-identically.  The serial simulator reports no executor steps.
  auto session_report = [] {
    std::vector<RunConfig> cfgs;
    for (std::size_t k = 0; k < 16; ++k) {
      const SystemParams p{5, 1};
      RunConfig cfg;
      cfg.params = p;
      cfg.protocol = ProtocolKind::kCrashRound;
      cfg.fixed_rounds = 3 + (k % 3);
      cfg.epsilon = 1e-2;
      cfg.inputs = linear_inputs(p.n, 0.0, 1.0 + 0.1 * static_cast<double>(k));
      cfg.sched = SchedKind::kRandom;
      cfg.seed = 43;
      cfgs.push_back(cfg);
    }
    SessionOptions opts;
    opts.batching = 8;
    opts.force_multiplex = true;
    return run_session(cfgs, opts);
  };
  const SessionReport first = session_report();
  const SessionReport replay = session_report();
  EXPECT_EQ(first.status, net::RunStatus::kPredicateSatisfied);
  EXPECT_TRUE(first.all_output);
  ASSERT_EQ(first.finish_times.size(), 16u);
  for (const double t : first.finish_times) {
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 1e9);
  }
  EXPECT_EQ(first.exec_stats.steps, 0u);
  EXPECT_EQ(first.exec_stats.fanned_steps, 0u);

  EXPECT_EQ(first.status, replay.status);
  EXPECT_EQ(first.finish_times, replay.finish_times);
  expect_metrics_eq(first.metrics, replay.metrics);
  ASSERT_EQ(first.scalar_reports.size(), replay.scalar_reports.size());
  for (std::size_t i = 0; i < first.scalar_reports.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(first.scalar_reports[i].has_value());
    ASSERT_TRUE(replay.scalar_reports[i].has_value());
    EXPECT_TRUE(first.scalar_reports[i]->all_output);
    expect_report_eq(*first.scalar_reports[i], *replay.scalar_reports[i]);
  }
}

// --- serial-only stubs --------------------------------------------------------

TEST(SimSerialStubs, ResolvedWorkersIsAlwaysOne) {
  for (const std::uint32_t requested : {0u, 1u, 4u}) {
    for (const bool step_dense : {false, true}) {
      for (const std::uint32_t n : {1u, 8u, 1u << 16}) {
        EXPECT_EQ(net::resolved_sim_workers(requested, step_dense, n), 1u);
      }
    }
  }
}

TEST(SimSerialStubs, BackendAcceptsOnlyOneWorker) {
  exec::SimBackend backend(SystemParams{3, 0},
                           std::make_unique<sched::RandomScheduler>(1));
  EXPECT_NO_THROW(backend.set_parallel_workers(1));
  for (const std::uint32_t w : {0u, 2u, 4u}) {
    EXPECT_THROW(backend.set_parallel_workers(w), std::invalid_argument) << w;
  }
}

}  // namespace
}  // namespace apxa::harness
