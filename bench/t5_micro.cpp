// T5 — Substrate microbenchmarks (google-benchmark).
//
// Raw costs of the building blocks: averaging rules, codec, simulator event
// loop, reliable broadcast, and the analytic worst-case search.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "analysis/worst_case.hpp"
#include "common/rng.hpp"
#include "core/bounds.hpp"
#include "core/codec.hpp"
#include "core/multiset_ops.hpp"
#include "harness/build.hpp"
#include "harness/harness.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_net.hpp"

namespace {

using namespace apxa;
using namespace apxa::core;
using namespace apxa::harness;

void BM_ApplyAverager(benchmark::State& state) {
  const auto avg = static_cast<Averager>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  Rng rng(1);
  std::vector<double> values(m);
  for (auto& v : values) v = rng.next_double();
  for (auto _ : state) {
    auto copy = values;
    benchmark::DoNotOptimize(apply_averager(avg, std::move(copy), 3));
  }
}
BENCHMARK(BM_ApplyAverager)
    ->Args({static_cast<int>(Averager::kMean), 64})
    ->Args({static_cast<int>(Averager::kMean), 1024})
    ->Args({static_cast<int>(Averager::kDlpswAsync), 64})
    ->Args({static_cast<int>(Averager::kDlpswAsync), 1024});

void BM_CodecRoundTrip(benchmark::State& state) {
  const RoundMsg m{123456, 0.123456789, 42};
  for (auto _ : state) {
    const auto bytes = encode_round(m);
    benchmark::DoNotOptimize(decode_round(bytes));
  }
}
BENCHMARK(BM_CodecRoundTrip);

void BM_SimRoundProtocol(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t t = std::max(1u, (n - 1) / 3);
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.params = {n, t};
    cfg.protocol = ProtocolKind::kCrashRound;
    cfg.inputs = linear_inputs(n, 0.0, 1.0);
    cfg.fixed_rounds = 4;
    const auto rep = harness::run(cfg);
    msgs += rep.metrics.messages_sent;
    benchmark::DoNotOptimize(rep.outputs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.SetLabel("items = messages simulated");
}
BENCHMARK(BM_SimRoundProtocol)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_WitnessIteration(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t t = std::max(1u, (n - 1) / 3);
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    RunConfig cfg;
    cfg.params = {n, t};
    cfg.protocol = ProtocolKind::kWitness;
    cfg.inputs = linear_inputs(n, 0.0, 1.0);
    cfg.fixed_rounds = 1;
    const auto rep = harness::run(cfg);
    msgs += rep.metrics.messages_sent;
    benchmark::DoNotOptimize(rep.outputs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.SetLabel("items = messages simulated");
}
BENCHMARK(BM_WitnessIteration)->Arg(8)->Arg(16)->Arg(32);

void BM_ThreadStealExecutor(benchmark::State& state) {
  // Steal/claim overhead of the work-stealing executor end to end: the same
  // 8-party round protocol under 1 worker (no stealing possible), 2 and 4
  // (constant contention on the per-party ownership tokens).  The spread
  // between the Arg(1) and Arg(4) rows is the claim/steal + wakeup cost.
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  const SystemParams p{8, 2};
  harness::RunConfig cfg;
  cfg.params = p;
  cfg.protocol = harness::ProtocolKind::kCrashRound;
  cfg.fixed_rounds = 4;
  cfg.inputs = harness::linear_inputs(p.n, 0.0, p.n - 1.0);
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    rt::ThreadNetwork net(p);
    net.set_shards(shards);
    for (auto& proc : harness::build_processes(cfg, {})) {
      net.add_process(std::move(proc));
    }
    benchmark::DoNotOptimize(net.run(std::chrono::seconds(30)));
    msgs += net.metrics().messages_delivered;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.SetLabel("items = messages through the stealing executor");
}
BENCHMARK(BM_ThreadStealExecutor)->Arg(1)->Arg(2)->Arg(4);

void BM_TraceSinkRecord(benchmark::State& state) {
  // Hot-path cost of one enabled record(): thread-local ring lookup, one
  // relaxed fetch_add for the merge ticket, a wall-clock read, and seven
  // stores into the ring slot.  This is the per-event price every traced
  // transport send/deliver pays; the macro-level budget it must fit under
  // is f7's trace_overhead section (< 5% on the K=256 thread row).
  obs::TraceSink sink;
  std::uint64_t n = 0;
  for (auto _ : state) {
    sink.record(obs::EventKind::kSend, 1, 2, static_cast<std::int64_t>(n),
                0.5, 1.0);
    ++n;
  }
  benchmark::DoNotOptimize(sink.recorded());
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
  state.SetLabel("items = events recorded");
}
BENCHMARK(BM_TraceSinkRecord);

void BM_TraceSinkDisabled(benchmark::State& state) {
  // The disabled path as every call site compiles it: a null-pointer test
  // and nothing else.  Pair with BM_TraceSinkRecord — the delta is the
  // whole cost tracing adds when it is off, and it must stay branch-only.
  obs::TraceSink* sink = nullptr;
  benchmark::DoNotOptimize(sink);
  std::uint64_t n = 0;
  for (auto _ : state) {
    if (sink) {
      sink->record(obs::EventKind::kSend, 1, 2, static_cast<std::int64_t>(n),
                   0.5, 1.0);
    }
    benchmark::DoNotOptimize(n);
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
  state.SetLabel("items = disabled-path branches");
}
BENCHMARK(BM_TraceSinkDisabled);

void BM_WorstCaseSearch(benchmark::State& state) {
  analysis::WorstCaseQuery q;
  q.params = {static_cast<std::uint32_t>(state.range(0)),
              std::max(1u, static_cast<std::uint32_t>(state.range(0)) / 4)};
  q.averager = Averager::kMean;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::worst_one_round_factor(q));
  }
}
BENCHMARK(BM_WorstCaseSearch)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
