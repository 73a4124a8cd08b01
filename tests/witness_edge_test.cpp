// Witness-protocol edge cases: malformed/undersized reports, laggards fed by
// buffered future-iteration traffic, RB hub state growth, determinism, and
// the protocol running on real threads.  The processes are the ones the
// harness stages for ProtocolKind::kWitness (harness::build_processes).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "core/bounds.hpp"
#include "core/codec.hpp"
#include "harness/build.hpp"
#include "harness/harness.hpp"
#include "net/sim.hpp"
#include "runtime/thread_net.hpp"
#include "scalar_outputs.hpp"
#include "sched/clique_scheduler.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa {
namespace {

using namespace core;
using namespace harness;

RunConfig witness_config(SystemParams p, std::vector<double> inputs,
                         Round iterations) {
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kWitness;
  cfg.inputs = std::move(inputs);
  cfg.fixed_rounds = iterations;
  return cfg;
}

/// Byzantine party that sends well-formed but malicious REPORT messages:
/// undersized sets (must be rejected) and sets claiming undelivered origins
/// (must never be accepted).
class ReportForger final : public net::Process {
 public:
  void on_start(net::Context& ctx) override {
    const auto n = ctx.params().n;
    // Undersized report: fewer than n - t origins listed.
    ReportMsg small;
    small.iter = 0;
    small.have.assign(n, false);
    small.have[0] = true;
    // Overclaiming report: everything delivered (before anything happened).
    ReportMsg big;
    big.iter = 0;
    big.have.assign(n, true);
    // Wrong-size report.
    ReportMsg bad;
    bad.iter = 0;
    bad.have.assign(n + 3, true);
    for (ProcessId to = 0; to < n; ++to) {
      if (to == ctx.self()) continue;
      ctx.send(to, encode_report(small));
      ctx.send(to, encode_report(big));
      ctx.send(to, encode_report(bad));
    }
  }
  void on_message(net::Context&, ProcessId, BytesView) override {}
};

TEST(WitnessEdge, ForgedReportsHarmless) {
  const SystemParams p{7, 2};
  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(5));
  auto procs = build_processes(
      witness_config(p, {0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 0.0}, 6), {});
  procs[6] = std::make_unique<ReportForger>();
  for (auto& proc : procs) net.add_process(std::move(proc));
  net.mark_byzantine(6);
  net.start();
  net.run_until([&net] { return net.all_correct_output(); });
  EXPECT_TRUE(net.all_correct_output());
  for (double y : scalar_outputs(net.correct_vector_outputs())) {
    EXPECT_GE(y, 0.0);
    EXPECT_LE(y, 1.0);
  }
}

TEST(WitnessEdge, OutOfBudgetTrafficProvokesNoEcho) {
  // No honest party tags RB traffic or reports with an iteration >= the
  // budget.  Forged ones must be dropped before the RB hub sees them:
  // echoing a forged SEND would amplify it into Theta(n^2) honest traffic
  // and leave a permanent hub slot.
  class RecordingContext final : public net::Context {
   public:
    void send(ProcessId, Bytes) override { ++sends; }
    void multicast(const Bytes&) override { ++sends; }
    [[nodiscard]] ProcessId self() const override { return 0; }
    [[nodiscard]] SystemParams params() const override { return {4, 1}; }
    int sends = 0;
  } ctx;
  auto procs = build_processes(witness_config({4, 1}, {0.5, 0.5, 0.5, 0.5}, 2), {});
  net::Process& proc = *procs[0];
  proc.on_start(ctx);
  ctx.sends = 0;

  const auto rb = [](MsgType type, std::uint32_t instance, ProcessId origin) {
    return encode_rb_vec(RbVecMsg{type, instance, origin, {9.0}});
  };
  for (const std::uint32_t instance : {2u, 3u, 1'000'000u}) {
    proc.on_message(ctx, 1, rb(MsgType::kRbVecSend, instance, 1));
    for (ProcessId from = 1; from < 4; ++from) {
      proc.on_message(ctx, from, rb(MsgType::kRbVecEcho, instance, 2));
      proc.on_message(ctx, from, rb(MsgType::kRbVecReady, instance, 3));
    }
    proc.on_message(ctx, 1,
                    encode_report(ReportMsg{instance, std::vector<bool>(4, true)}));
  }
  EXPECT_EQ(ctx.sends, 0) << "out-of-budget traffic provoked honest sends";

  // Control: the same SEND inside the budget is echoed.
  proc.on_message(ctx, 1, rb(MsgType::kRbVecSend, 1, 1));
  EXPECT_GT(ctx.sends, 0);
}

TEST(WitnessEdge, LaggardCatchesUpUnderCliqueScheduling) {
  // The clique scheduler makes the last t parties permanent stragglers; the
  // buffered-iteration machinery must still carry them to the output.
  RunConfig cfg;
  cfg.params = {7, 2};
  cfg.protocol = ProtocolKind::kWitness;
  cfg.epsilon = 1e-2;
  cfg.inputs = linear_inputs(7, 0.0, 1.0);
  cfg.fixed_rounds = 8;
  cfg.sched = SchedKind::kClique;
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_TRUE(rep.agreement_ok) << rep.worst_pair_gap;
}

TEST(WitnessEdge, GreedySplitSchedulerSeesWitnessValues) {
  // Witness values travel as 1-point RBVEC frames.  The harness's
  // value-aware scheduler must read them; a probe that decoded only ROUND
  // frames left kGreedySplit value-blind (constant delay) against kWitness.
  RunConfig cfg = witness_config({8, 2}, linear_inputs(8, 0.0, 1.0), 1);
  cfg.sched = SchedKind::kGreedySplit;
  const auto sched = make_scheduler(cfg);
  const auto send = [](ProcessId to, double v) {
    net::Message m;
    m.from = 7;
    m.to = to;
    m.payload = encode_rb_vec(RbVecMsg{MsgType::kRbVecSend, 0, 7, {v}});
    return m;
  };
  (void)sched->delay(send(1, 0.0));  // warm the range estimate
  (void)sched->delay(send(1, 1.0));
  // Party 1 is in the low camp: low values first; party 6 mirrored.
  EXPECT_LT(sched->delay(send(1, 0.0)), sched->delay(send(1, 1.0)));
  EXPECT_GT(sched->delay(send(6, 0.0)), sched->delay(send(6, 1.0)));
}

TEST(WitnessEdge, DeterministicReplay) {
  auto run_once = [] {
    RunConfig cfg;
    cfg.params = {7, 2};
    cfg.protocol = ProtocolKind::kWitness;
    cfg.inputs = linear_inputs(7, -1.0, 1.0);
    cfg.fixed_rounds = 6;
    cfg.seed = 1234;
    return harness::run(cfg);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.metrics.messages_sent, b.metrics.messages_sent);
  EXPECT_EQ(a.finish_time, b.finish_time);
}

TEST(WitnessEdge, HubStateBounded) {
  // After a full run, the RB hub holds one slot per (iteration, origin) —
  // not per message.
  const SystemParams p{4, 1};
  net::SimNetwork net(p, std::make_unique<sched::RandomScheduler>(2));
  for (auto& proc : build_processes(witness_config(p, {0.0, 1.0, 2.0, 3.0}, 5), {})) {
    net.add_process(std::move(proc));
  }
  net.start();
  net.run_until([&net] { return net.all_correct_output(); });
  ASSERT_TRUE(net.all_correct_output());
}

TEST(WitnessEdge, RunsOnRealThreads) {
  const SystemParams p{4, 1};
  rt::ThreadNetwork net(p);
  const double inputs[] = {0.0, 0.25, 0.75, 1.0};
  const Round iters =
      std::max<Round>(1, rounds_needed(2.0, 1e-3, predicted_factor_witness()));
  for (auto& proc : build_processes(
           witness_config(p, {inputs, inputs + 4}, iters), {})) {
    net.add_process(std::move(proc));
  }
  ASSERT_TRUE(net.run(std::chrono::seconds(20)));
  const auto outs = scalar_outputs(net.correct_vector_outputs());
  ASSERT_EQ(outs.size(), 4u);
  const auto [mn, mx] = std::minmax_element(outs.begin(), outs.end());
  EXPECT_LE(*mx - *mn, 1e-3);
  EXPECT_GE(*mn, 0.0);
  EXPECT_LE(*mx, 1.0);
}

TEST(WitnessEdge, SingleIterationIsOneHalving) {
  RunConfig cfg;
  cfg.params = {7, 2};
  cfg.protocol = ProtocolKind::kWitness;
  cfg.inputs = split_inputs(7, 3, 0.0, 1.0);
  cfg.fixed_rounds = 1;
  const auto rep = harness::run(cfg);
  EXPECT_TRUE(rep.all_output);
  // One iteration: outputs within the hull, spread at most half.
  EXPECT_LE(rep.worst_pair_gap, 0.5 + 1e-9);
  EXPECT_TRUE(rep.validity_ok);
}

}  // namespace
}  // namespace apxa
