// TraceSink and exporter behavior: seq-ordered merge across writer threads,
// bounded rings (wrap drops oldest, never blocks), the protocol/executor
// domain split behind protocol_events()/protocol_digest(), and the two
// export formats.  Harness-level cases check that traced runs actually
// record the event kinds each layer owns — transports (send/deliver/drop/
// crash), the round engines (round-advance), the collect engine
// (view-freeze) and the threaded executor (claim/steal/idle) — and that
// executor telemetry surfaces in the reports.
//
// Runs in the TSan lane (name matched by the CI regex): the per-thread
// rings plus the relaxed global ticket are exactly the code a data race
// would corrupt.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/harness.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace apxa::obs {
namespace {

TEST(TraceSink, RecordsFieldsAndMergesInSeqOrder) {
  TraceSink sink;
  sink.record(EventKind::kSend, 1, 2, 3, 4.5, 6.5);
  sink.record(EventKind::kDeliver, 2, 1, 3, 1.0, 7.0);
  sink.record(EventKind::kRoundAdvance, 1, 0, 4, 0.25, 7.0);

  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.seq < b.seq;
                             }));
  EXPECT_EQ(events[0].kind, EventKind::kSend);
  EXPECT_EQ(events[0].party, 1u);
  EXPECT_EQ(events[0].peer, 2u);
  EXPECT_EQ(events[0].round, 3);
  EXPECT_EQ(events[0].value, 4.5);
  EXPECT_EQ(events[0].vtime, 6.5);
  EXPECT_EQ(events[2].kind, EventKind::kRoundAdvance);
  EXPECT_EQ(sink.recorded(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, CapacityRoundsUpToPowerOfTwoWithFloor) {
  EXPECT_EQ(TraceSink(1).ring_capacity(), 64u);
  EXPECT_EQ(TraceSink(64).ring_capacity(), 64u);
  EXPECT_EQ(TraceSink(100).ring_capacity(), 128u);
  EXPECT_EQ(TraceSink().ring_capacity(), TraceSink::kDefaultRingCapacity);
}

TEST(TraceSink, RingWrapKeepsNewestEventsAndCountsDrops) {
  TraceSink sink(64);
  for (int i = 0; i < 200; ++i) {
    sink.record(EventKind::kSend, 0, 0, i, 0.0, 0.0);
  }
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 64u);
  EXPECT_EQ(sink.recorded(), 200u);
  EXPECT_EQ(sink.dropped(), 136u);
  // The survivors are exactly the newest 64, still in order.
  EXPECT_EQ(events.front().round, 136);
  EXPECT_EQ(events.back().round, 199);
}

TEST(TraceSink, WriterThreadsGetDistinctSeqTickets) {
  TraceSink sink;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.record(EventKind::kClaim, static_cast<std::uint32_t>(t), 0, i,
                    0.0, 0.0);
      }
    });
  }
  for (auto& w : writers) w.join();

  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::set<std::uint64_t> seqs;
  for (const auto& e : events) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), events.size());  // tickets never collide
  // Per-thread order is preserved in the merged stream.
  std::vector<std::int64_t> last(kThreads, -1);
  for (const auto& e : events) {
    EXPECT_LT(last[e.party], e.round);
    last[e.party] = e.round;
  }
}

TEST(TraceSink, ThreadLocalCacheRoutesAcrossSinks) {
  // The fast path caches (sink id, ring) per thread; interleaving two sinks
  // on one thread must re-resolve instead of writing into the wrong ring.
  TraceSink a;
  TraceSink b;
  a.record(EventKind::kSend, 1, 0, 0, 0.0, 0.0);
  b.record(EventKind::kSend, 2, 0, 0, 0.0, 0.0);
  a.record(EventKind::kSend, 1, 0, 1, 0.0, 0.0);
  EXPECT_EQ(a.snapshot().size(), 2u);
  EXPECT_EQ(b.snapshot().size(), 1u);
  for (const auto& e : a.snapshot()) EXPECT_EQ(e.party, 1u);
  for (const auto& e : b.snapshot()) EXPECT_EQ(e.party, 2u);
}

TEST(TraceDomains, ProtocolFilterExcludesExecutorEvents) {
  TraceSink sink;
  sink.record(EventKind::kSend, 0, 1, 0, 1.0, 0.5);
  sink.record(EventKind::kSteal, 1, 0, -1, 1.0, 0.5);
  sink.record(EventKind::kDeliver, 0, 1, 0, 1.0, 1.0);
  sink.record(EventKind::kRetransmit, 0, 1, -1, 2.0, 1.0);
  sink.record(EventKind::kClaim, 0, 3, -1, 0.0, 0.0);
  sink.record(EventKind::kInstanceFinish, 3, 0, -1, 2.0, 2.0);

  const auto prot = protocol_events(sink.snapshot());
  ASSERT_EQ(prot.size(), 3u);
  EXPECT_EQ(prot[0].kind, EventKind::kSend);
  EXPECT_EQ(prot[1].kind, EventKind::kDeliver);
  EXPECT_EQ(prot[2].kind, EventKind::kInstanceFinish);
}

TEST(TraceDomains, DigestIgnoresExecutorNoiseButSeesProtocolChanges) {
  auto digest_of = [](bool with_noise, double send_value) {
    TraceSink sink;
    sink.record(EventKind::kSend, 0, 1, 0, send_value, 0.5);
    if (with_noise) {
      sink.record(EventKind::kSteal, 7, 0, -1, 1.0, 0.5);
      sink.record(EventKind::kIdle, 2, 0, -1, 0.0, 0.0);
    }
    sink.record(EventKind::kDeliver, 0, 1, 0, send_value, 1.0);
    return protocol_digest(sink.snapshot());
  };
  EXPECT_EQ(digest_of(false, 1.0), digest_of(true, 1.0));
  EXPECT_NE(digest_of(false, 1.0), digest_of(false, 2.0));
}

TEST(TraceDomains, KindNamesCoverEveryKind) {
  for (const EventKind k :
       {EventKind::kSend, EventKind::kDeliver, EventKind::kDrop,
        EventKind::kCrash, EventKind::kRoundAdvance, EventKind::kViewFreeze,
        EventKind::kInstanceFinish, EventKind::kClaim, EventKind::kSteal,
        EventKind::kIdle, EventKind::kRetransmit}) {
    EXPECT_STRNE(kind_name(k), "");
  }
  EXPECT_TRUE(is_protocol_event(EventKind::kInstanceFinish));
  EXPECT_FALSE(is_protocol_event(EventKind::kClaim));
}

// --- exporters ---------------------------------------------------------------

TEST(TraceExport, JsonlEmitsOneObjectPerEventInSeqOrder) {
  TraceSink sink;
  sink.record(EventKind::kSend, 0, 1, 2, 0.5, 1.0);
  sink.record(EventKind::kDeliver, 0, 1, 2, 0.5, 1.5);
  const std::string jsonl = to_jsonl(sink.snapshot());
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  const auto first_line = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_EQ(first_line.front(), '{');
  EXPECT_EQ(first_line.back(), '}');
  EXPECT_NE(first_line.find("\"kind\":\"send\""), std::string::npos);
  EXPECT_NE(first_line.find("\"round\":2"), std::string::npos);
  EXPECT_LT(jsonl.find("\"kind\":\"send\""), jsonl.find("\"kind\":\"deliver\""));
}

TEST(TraceExport, ChromeJsonCarriesBothProcessTracks) {
  TraceSink sink;
  sink.record(EventKind::kSend, 0, 1, 2, 0.5, 1.0);    // protocol -> pid 0
  sink.record(EventKind::kClaim, 3, 0, -1, 0.0, 0.0);  // executor -> pid 1
  const std::string doc = to_chrome_json(sink.snapshot());
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc[doc.find_last_not_of('\n')], '}');
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("process_name"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"send\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"claim\""), std::string::npos);
  // Braces/brackets balance — cheap structural sanity without a parser
  // (tools/trace_view.py and the CI artifact load do the strict parse).
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
}

// --- traced runs through the harness -----------------------------------------

TEST(TraceHarness, SimRunRecordsEveryProtocolLayer) {
  using namespace apxa::harness;
  const SystemParams p{5, 1};
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.fixed_rounds = 4;
  cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  adversary::CrashSpec crash;  // crash mid-run: kCrash + kDrop must appear
  crash.who = 4;
  crash.after_sends = 10;
  cfg.crashes = {crash};
  cfg.backend = BackendKind::kSim;

  obs::TraceSink trace;
  cfg.trace = &trace;
  const RunReport rep = run(cfg);
  EXPECT_TRUE(rep.validity_ok);

  std::uint64_t sends = 0, delivers = 0, drops = 0, crashes = 0, rounds = 0;
  for (const auto& e : trace.snapshot()) {
    switch (e.kind) {
      case EventKind::kSend: ++sends; break;
      case EventKind::kDeliver: ++delivers; break;
      case EventKind::kDrop: ++drops; break;
      case EventKind::kCrash: ++crashes; break;
      case EventKind::kRoundAdvance: ++rounds; break;
      default: break;
    }
  }
  EXPECT_EQ(sends, rep.metrics.packets_sent);
  EXPECT_EQ(delivers, rep.metrics.messages_delivered);
  EXPECT_EQ(crashes, 1u);
  EXPECT_GT(drops, 0u);   // the crashed party's queued traffic
  EXPECT_GT(rounds, 0u);  // harness kRoundAdvance hook
}

TEST(TraceHarness, ConvexRunRecordsViewFreezes) {
  using namespace apxa::harness;
  const SystemParams p{4, 1};
  VectorRunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kVectorConvex;
  cfg.dim = 2;
  cfg.fixed_rounds = 3;
  cfg.inputs = corner_split_inputs(p.n, 2, 2, 0.0, 1.0);
  cfg.backend = BackendKind::kSim;

  obs::TraceSink trace;
  cfg.trace = &trace;
  const VectorRunReport rep = run(cfg);
  EXPECT_TRUE(rep.all_output);

  std::uint64_t freezes = 0;
  for (const auto& e : trace.snapshot()) {
    if (e.kind != EventKind::kViewFreeze) continue;
    ++freezes;
    EXPECT_GE(e.value, p.quorum());  // frozen views hold >= n - t entries
  }
  // Every correct party freezes one view per round.
  EXPECT_EQ(freezes, static_cast<std::uint64_t>(p.n) * cfg.fixed_rounds);
}

TEST(TraceHarness, ThreadRunSurfacesExecutorTelemetry) {
  using namespace apxa::harness;
  const SystemParams p{5, 1};
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.fixed_rounds = 4;
  cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  cfg.backend = BackendKind::kThread;

  obs::TraceSink trace;
  cfg.trace = &trace;
  const RunReport rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_GT(rep.exec_stats.workers, 0u);
  EXPECT_GT(rep.exec_stats.claims, 0u);
  EXPECT_GT(rep.exec_stats.parties_run, 0u);

  std::uint64_t claims = 0, protocol = 0;
  for (const auto& e : trace.snapshot()) {
    if (e.kind == EventKind::kClaim) ++claims;
    if (is_protocol_event(e.kind)) ++protocol;
  }
  EXPECT_GT(claims, 0u);
  EXPECT_GT(protocol, 0u);
}

TEST(TraceHarness, SimRunRecordsOnlyProtocolEvents) {
  // The simulator is one serial event loop: it records no executor-domain
  // events and leaves every executor counter at 0, so a sim trace's digest
  // covers the whole stream.
  using namespace apxa::harness;
  const SystemParams p{8, 2};
  RunConfig cfg;
  cfg.params = p;
  cfg.protocol = ProtocolKind::kCrashRound;
  cfg.fixed_rounds = 4;
  cfg.inputs = linear_inputs(p.n, 0.0, 1.0);
  cfg.sched = SchedKind::kFifo;  // constant delays -> many equal-time events
  cfg.backend = BackendKind::kSim;

  obs::TraceSink trace;
  cfg.trace = &trace;
  const RunReport rep = run(cfg);
  EXPECT_TRUE(rep.all_output);
  EXPECT_EQ(rep.exec_stats.workers, 0u);
  EXPECT_EQ(rep.exec_stats.claims, 0u);
  EXPECT_EQ(rep.exec_stats.steps, 0u);
  EXPECT_EQ(rep.exec_stats.fanned_steps, 0u);

  const auto events = trace.snapshot();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) EXPECT_TRUE(is_protocol_event(e.kind)) << kind_name(e.kind);
  EXPECT_EQ(protocol_events(events).size(), events.size());
}

}  // namespace
}  // namespace apxa::obs
