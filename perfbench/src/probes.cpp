// The traced run: per-layer metrics.
//
// Two sources, both from this file's calls into each layer's public
// functions (no instrumentation inside the library):
//  - sessions of the workload's own request, alternating untraced (timed,
//    allocation- and fault-counted) and traced (obs::TraceSink attached);
//  - layer probes replayed on inputs shaped like the workload's traffic:
//    a null protocol on each exec backend, codec, envelope/batch,
//    Metrics::note_send, the collect engine, averaging, safe_midpoint and
//    harness finalize.
// attributed_frac sums per-call cost x calls per instance over the layers
// on the workload's path and divides by the per-instance session time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/codec.hpp"
#include "core/collect.hpp"
#include "core/multidim.hpp"
#include "core/multiset_ops.hpp"
#include "core/round_engine.hpp"
#include "exec/sim_backend.hpp"
#include "exec/socket_backend.hpp"
#include "exec/thread_backend.hpp"
#include "geom/safe_area.hpp"
#include "harness/build.hpp"
#include "harness/harness.hpp"
#include "net/envelope.hpp"
#include "net/sim.hpp"

namespace aabench {
namespace {

using harness::BackendKind;

/// Trace ring sizes per writer thread: large enough that no traced session
/// or null run of any workload wraps (wrapping is checked and fails the
/// run), small enough to keep kMaxTracedSessions sinks alive at once.
constexpr std::size_t kSessionRing = std::size_t{1} << 15;
constexpr std::size_t kNullRing = std::size_t{1} << 18;
constexpr std::size_t kMaxTracedSessions = 8;

/// Frames in the codec / envelope replay sample.
constexpr std::size_t kSampleFrames = 1024;

volatile std::uint64_t g_sink;  // keeps probe results observable

/// Per-operation time of `batch` (which returns the operations it did),
/// median over repeated batches for `slice` seconds (at least 3 batches).
struct PerOp {
  double seconds = 0.0;
  std::size_t samples = 0;
};
template <class F>
PerOp per_op(double slice, F&& batch) {
  std::vector<double> v;
  const auto end = Clock::now() + std::chrono::duration<double>(slice);
  do {
    const auto t0 = Clock::now();
    const double ops = batch();
    v.push_back(seconds_between(t0, Clock::now()) / ops);
  } while (Clock::now() < end || v.size() < 3);
  return {median(v), v.size()};
}

// --- null protocol ------------------------------------------------------

/// Sends kRounds bursts of `burst` multicasts of a fixed `bytes`-byte frame
/// and decides once it has received every peer's bursts.  Frames are
/// [ROUND tag][round][zero padding], so net::Metrics accounts them per
/// round like protocol traffic; no decoding happens on receipt.
class NullProcess final : public net::Process {
 public:
  NullProcess(std::uint32_t n, std::uint32_t burst, std::uint32_t bytes)
      : need_((n - 1) * burst), burst_(burst), bytes_(bytes) {}

  void on_start(net::Context& ctx) override { send_round(ctx); }

  void on_message(net::Context& ctx, ProcessId, BytesView payload) override {
    ++got_[std::to_integer<std::size_t>(payload[1]) % kRounds];
    while (round_ < kRounds && got_[round_] == need_) {
      ++round_;
      if (round_ < kRounds) send_round(ctx);
    }
  }

  [[nodiscard]] std::optional<double> output() const override {
    if (round_ == kRounds) return 0.0;
    return std::nullopt;
  }

 private:
  void send_round(net::Context& ctx) {
    Bytes frame(bytes_, std::byte{0});
    frame[0] = static_cast<std::byte>(core::MsgType::kRound);
    frame[1] = static_cast<std::byte>(round_);
    for (std::uint32_t b = 0; b < burst_; ++b) ctx.multicast(frame);
  }

  std::uint64_t got_[kRounds] = {};
  std::uint64_t need_;
  std::uint32_t burst_, bytes_;
  Round round_ = 0;
};

/// The null protocol's traffic shape: the workload's n, logical messages and
/// wire bytes per message of one session.
struct NullShape {
  std::uint32_t n = 0;
  std::uint32_t burst = 0;
  std::uint32_t bytes = 0;
};

NullShape null_shape(const Workload& w, const net::Metrics& m) {
  NullShape s;
  s.n = w.n;
  const double per_burst = static_cast<double>(kRounds * w.n * (w.n - 1));
  s.burst = static_cast<std::uint32_t>(std::max(
      1.0, std::round(static_cast<double>(m.messages_sent) / per_burst)));
  const double avg = static_cast<double>(m.payload_bytes) /
                     static_cast<double>(std::max<std::uint64_t>(1, m.messages_sent));
  s.bytes = static_cast<std::uint32_t>(std::clamp(std::round(avg), 2.0, 120.0));
  return s;
}

struct NullRun {
  std::uint64_t deliveries = 0;
  bool ok = false;
  net::Metrics metrics;
  obs::ExecStats exec;
};

NullRun run_null(const Workload& w, const Request& req, BackendKind kind,
                 const NullShape& shape, obs::TraceSink* trace) {
  const SystemParams params{w.n, w.t};
  std::unique_ptr<exec::Backend> be;
  if (kind == BackendKind::kSim) {
    auto sched = req.scalar.empty() ? harness::make_scheduler(req.vec.front())
                                    : harness::make_scheduler(req.scalar.front());
    auto sim = std::make_unique<exec::SimBackend>(params, std::move(sched));
    // The crew size a session of this many instances gets by default.
    const std::uint32_t workers = net::resolved_sim_workers(
        0, w.instances >= harness::kStepDenseSessionInstances, w.n);
    if (workers > 1) sim->set_parallel_workers(workers);
    be = std::move(sim);
  } else if (kind == BackendKind::kThread) {
    be = std::make_unique<exec::ThreadBackend>(params);
  } else {
    // Every workload drives the socket transport at socket_lossy's loss
    // rate, so the retransmit path is measured whatever the workload.
    auto sock = std::make_unique<exec::SocketBackend>(params);
    netio::FaultConfig faults = req.scalar.empty() ? req.vec.front().socket_faults
                                                   : req.scalar.front().socket_faults;
    faults.loss = kSocketLoss;
    sock->set_fault_config(faults);
    be = std::move(sock);
  }
  be->enable_batching(kBatchCap);
  be->set_trace(trace);
  for (ProcessId p = 0; p < w.n; ++p) {
    be->add_process(std::make_unique<NullProcess>(shape.n, shape.burst, shape.bytes));
  }
  exec::ExecOptions opts;
  opts.timeout = std::chrono::milliseconds{60'000};
  exec::ExecResult res = be->run(opts);
  return {res.metrics.messages_delivered, res.all_correct_output,
          std::move(res.metrics), res.exec_stats};
}

/// Wall-clock kSend -> kDeliver waits (us) per logical frame, matched FIFO
/// per channel.  kSend records a packet's byte size; a null-protocol packet
/// of c frames of s bytes is s bytes when sent bare and 2 + c * (s + 1) as a
/// batch (tag, count varint, then a length byte per frame; c <= 8 and
/// s <= 120 keep both varints one byte).
std::vector<double> deliver_waits_us(const std::vector<obs::TraceEvent>& events,
                                     std::uint32_t n, std::uint32_t bytes) {
  std::vector<std::deque<std::uint64_t>> sent(static_cast<std::size_t>(n) * n);
  std::vector<double> waits;
  for (const auto& e : events) {
    const std::size_t ch = static_cast<std::size_t>(e.party) * n + e.peer;
    if (ch >= sent.size()) continue;
    if (e.kind == obs::EventKind::kSend) {
      const auto size = static_cast<std::uint64_t>(e.value);
      const std::uint64_t frames = size <= bytes ? 1 : (size - 2) / (bytes + 1);
      for (std::uint64_t f = 0; f < frames; ++f) sent[ch].push_back(e.wall_ns);
    } else if (e.kind == obs::EventKind::kDeliver && !sent[ch].empty()) {
      waits.push_back(static_cast<double>(e.wall_ns - sent[ch].front()) / 1e3);
      sent[ch].pop_front();
    }
  }
  return waits;
}

// --- codec, envelope/batch, metrics replay ------------------------------

/// kSampleFrames protocol frames in the workload's per-tag proportions.
std::vector<Bytes> codec_sample(const Workload& w, const net::Metrics& m, Rng& rng) {
  std::uint64_t total = 0;
  for (std::size_t tag = 1; tag < m.sent_by_tag.size(); ++tag) total += m.sent_by_tag[tag];
  std::vector<Bytes> out;
  for (std::size_t tag = 1; tag < m.sent_by_tag.size() && total > 0; ++tag) {
    const auto count = static_cast<std::size_t>(std::llround(
        static_cast<double>(kSampleFrames * m.sent_by_tag[tag]) /
        static_cast<double>(total)));
    for (std::size_t i = 0; i < count; ++i) {
      const auto r = static_cast<Round>(i % kRounds);
      const auto origin = static_cast<ProcessId>(i % w.n);
      std::vector<double> point(w.dim);
      for (auto& x : point) x = rng.next_double(0.0, 1.0);
      switch (static_cast<core::MsgType>(tag)) {
        case core::MsgType::kRound:
          out.push_back(core::encode_round({r, point[0], 0}));
          break;
        case core::MsgType::kDone:
          out.push_back(core::encode_done({r, point[0]}));
          break;
        case core::MsgType::kRbSend:
        case core::MsgType::kRbEcho:
        case core::MsgType::kRbReady:
          out.push_back(core::encode_rb(
              {static_cast<core::MsgType>(tag), r, origin, point[0]}));
          break;
        case core::MsgType::kReport: {
          std::vector<bool> have(w.n);
          for (std::uint32_t j = 0; j < w.n; ++j) have[j] = j != (i % w.n);
          out.push_back(core::encode_report({r, std::move(have)}));
          break;
        }
        case core::MsgType::kVecRound:
          out.push_back(core::encode_vec_round(r, point));
          break;
        case core::MsgType::kRbVecSend:
        case core::MsgType::kRbVecEcho:
        case core::MsgType::kRbVecReady:
          out.push_back(core::encode_rb_vec(
              {static_cast<core::MsgType>(tag), r, origin, std::move(point)}));
          break;
      }
    }
  }
  return out;
}

/// The frame decoded once and bound to its encoder: the encode side of the
/// codec probe.
std::function<Bytes()> encoder(BytesView f) {
  switch (*core::peek_type(f)) {
    case core::MsgType::kRound:
      return [m = *core::decode_round(f)] { return core::encode_round(m); };
    case core::MsgType::kDone:
      return [m = *core::decode_done(f)] { return core::encode_done(m); };
    case core::MsgType::kRbSend:
    case core::MsgType::kRbEcho:
    case core::MsgType::kRbReady:
      return [m = *core::decode_rb(f)] { return core::encode_rb(m); };
    case core::MsgType::kReport:
      return [m = *core::decode_report(f)] { return core::encode_report(m); };
    case core::MsgType::kVecRound:
      return [m = *core::decode_vec_round(f)] {
        return core::encode_vec_round(m.first, m.second);
      };
    default:
      return [m = *core::decode_rb_vec(f)] { return core::encode_rb_vec(m); };
  }
}

std::size_t decode(BytesView f) {
  switch (*core::peek_type(f)) {
    case core::MsgType::kRound:
      return core::decode_round(f).has_value();
    case core::MsgType::kDone:
      return core::decode_done(f).has_value();
    case core::MsgType::kRbSend:
    case core::MsgType::kRbEcho:
    case core::MsgType::kRbReady:
      return core::decode_rb(f).has_value();
    case core::MsgType::kReport:
      return core::decode_report(f).has_value();
    case core::MsgType::kVecRound:
      return core::decode_vec_round(f).has_value();
    default:
      return core::decode_rb_vec(f)->value.size();
  }
}

// --- collect engines over a benchmark-owned FIFO network ----------------

struct FifoPacket {
  ProcessId from, to;
  Bytes payload;
};

class FifoContext final : public net::Context {
 public:
  FifoContext(std::deque<FifoPacket>& q, SystemParams params, ProcessId self)
      : q_(q), params_(params), self_(self) {}
  void send(ProcessId to, Bytes payload) override {
    q_.push_back({self_, to, std::move(payload)});
  }
  void multicast(const Bytes& payload) override {
    for (ProcessId q = 0; q < params_.n; ++q) {
      if (q != self_) q_.push_back({self_, q, payload});
    }
  }
  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] SystemParams params() const override { return params_; }

 private:
  std::deque<FifoPacket>& q_;
  SystemParams params_;
  ProcessId self_;
};

/// kRounds of n equalized collectors cross-wired FIFO; returns views frozen.
double equalized_collect(const Workload& w,
                         const std::vector<std::vector<double>>& inputs) {
  const SystemParams params{w.n, w.t};
  std::deque<FifoPacket> q;
  std::vector<FifoContext> ctxs;
  for (ProcessId p = 0; p < w.n; ++p) ctxs.emplace_back(q, params, p);
  std::vector<std::unique_ptr<core::Collector>> cs(w.n);
  double views = 0;
  for (ProcessId p = 0; p < w.n; ++p) {
    cs[p] = core::make_collector(
        core::CollectMode::kEqualized, params, w.dim, kRounds,
        [&cs, &views, p](net::Context& ctx, Round r,
                         const std::vector<core::CollectEntry>& view) {
          ++views;
          if (r + 1 < kRounds) cs[p]->begin_round(ctx, r + 1, view.front().value);
        });
  }
  for (ProcessId p = 0; p < w.n; ++p) cs[p]->begin_round(ctxs[p], 0, inputs[p]);
  while (!q.empty()) {
    FifoPacket m = std::move(q.front());
    q.pop_front();
    cs[m.to]->handle(ctxs[m.to], m.from, m.payload);
  }
  return views;
}

/// kRounds of n RoundCollectors fed FIFO; returns views frozen.
double round_collect(const Workload& w, const std::vector<double>& inputs) {
  const SystemParams params{w.n, w.t};
  std::vector<core::RoundCollector> cs(w.n, core::RoundCollector(params));
  double views = 0;
  for (Round r = 0; r < kRounds; ++r) {
    for (ProcessId p = 0; p < w.n; ++p) cs[p].add_own(r, inputs[p]);
    for (ProcessId s = 0; s < w.n; ++s) {
      for (ProcessId p = 0; p < w.n; ++p) {
        if (p != s) cs[p].add_remote(s, r, inputs[s]);
      }
    }
    for (ProcessId p = 0; p < w.n; ++p) {
      if (cs[p].ready(r)) views += static_cast<double>(cs[p].view(r).size() > 0);
    }
  }
  return views;
}

// --- harness finalize input ---------------------------------------------

/// One instance of the request staged and run on a serial simulator, with
/// the traces finalize() reads.
struct FinalizeInput {
  exec::ExecResult res;
  harness::ScalarTrace scalar;
  harness::VectorTrace vec;
  harness::ViewTrace views;
};

FinalizeInput finalize_input(const Request& req) {
  FinalizeInput in;
  exec::ExecOptions opts;
  if (!req.scalar.empty()) {
    harness::RunConfig cfg = req.scalar.front();
    cfg.backend = BackendKind::kSim;
    exec::SimBackend be(cfg.params, harness::make_scheduler(cfg));
    harness::stage(cfg, [&in](ProcessId p, Round r, double v) { in.scalar[r][p] = v; },
                   be);
    opts.done = harness::make_done_predicate(cfg);
    in.res = be.run(opts);
  } else {
    harness::VectorRunConfig cfg = req.vec.front();
    cfg.backend = BackendKind::kSim;
    exec::SimBackend be(cfg.params, harness::make_scheduler(cfg));
    harness::stage(
        cfg,
        [&in](ProcessId p, Round r, const std::vector<double>& v) { in.vec[r][p] = v; },
        be,
        [&in](ProcessId p, Round r, const std::vector<core::CollectEntry>& v) {
          in.views[r][p] = v;
        });
    in.res = be.run(opts);
  }
  return in;
}

double quotient(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace

Result run_layers(const Workload& w, std::uint64_t seed, double seconds) {
  Result out;
  const auto run_start = Clock::now();
  const Request req = make_request(w, seed);
  const double K = static_cast<double>(w.instances);
  const bool on_sim = w.backend == BackendKind::kSim;
  std::vector<double> calib{calib_kernel_ms()};

  // --- sessions -------------------------------------------------------------
  // Order matters.  Freeing a large block raises glibc's dynamic mmap and
  // trim thresholds, which changes how every later session pays for its
  // memory (about 3000 minor faults per sim_service session at the end-to-
  // end run's thresholds, almost none after a multi-megabyte free).  So the
  // timed sessions run in the end-to-end run's allocator state: nothing
  // large is freed between them, and trace sinks stay alive until all timed
  // sessions are done.
  LoopStats loop;
  loop.note(w, run_session(w, req, nullptr), out);  // warm-up, shapes probes
  const net::Metrics& shape = loop.first.metrics;
  std::vector<double> plain_ms, traced_ms, allocs, alloc_bytes, faults;
  std::vector<double> steps, fanned;
  std::vector<std::uint64_t> digests, alloc_counts;
  double events_per_inst = 0.0, views_per_inst = 0.0;

  // Allocations and page faults are counted in sessions of their own: the
  // shared counters would slow the timed ones.
  for (int i = 0; i < 3; ++i) {
    const AllocCount a0 = alloc_snapshot();
    const std::uint64_t f0 = minor_faults();
    alloc_counting(true);
    const SessionSample s = run_session(w, req, nullptr);
    alloc_counting(false);
    const AllocCount a1 = alloc_snapshot();
    faults.push_back(static_cast<double>(minor_faults() - f0));
    alloc_counts.push_back(a1.count - a0.count);
    allocs.push_back(static_cast<double>(a1.count - a0.count) / K);
    alloc_bytes.push_back(static_cast<double>(a1.bytes - a0.bytes) / K);
    loop.note(w, s, out);
  }

  // Untraced and traced sessions alternate, so host speed phases hit both.
  std::vector<std::unique_ptr<obs::TraceSink>> sinks;
  const auto session_end =
      Clock::now() + std::chrono::duration<double>(0.4 * seconds);
  while ((Clock::now() < session_end || sinks.size() < 3) &&
         sinks.size() < kMaxTracedSessions) {
    const SessionSample s = run_session(w, req, nullptr);
    plain_ms.push_back(s.run_ms);
    steps.push_back(static_cast<double>(s.exec.steps));
    fanned.push_back(static_cast<double>(s.exec.fanned_steps));
    loop.note(w, s, out);

    // The simulator records every protocol event from one thread; the
    // threaded transports spread them over their worker threads' rings.
    sinks.push_back(std::make_unique<obs::TraceSink>(
        w.backend == BackendKind::kSim ? kSessionRing * 4 : kSessionRing));
    const SessionSample ts = run_session(w, req, sinks.back().get());
    traced_ms.push_back(ts.run_ms);
    loop.note(w, ts, out);
    calib.push_back(calib_kernel_ms());
  }
  // Snapshots are taken once every timed session is done: their buffers
  // are large blocks too.
  for (const auto& sink : sinks) {
    if (sink->dropped() > 0) out.fail("trace ring wrapped in a traced session");
    const auto events = sink->snapshot();
    digests.push_back(obs::protocol_digest(events));
    events_per_inst = static_cast<double>(sink->recorded()) / K;
    const auto freezes = std::count_if(events.begin(), events.end(), [](const auto& e) {
      return e.kind == obs::EventKind::kViewFreeze;
    });
    // Scalar round protocols record no freeze event: every correct party
    // freezes one view per round.
    views_per_inst = freezes > 0 ? static_cast<double>(freezes) / K
                                 : static_cast<double>(w.n * kRounds);
  }
  sinks.clear();
  if (out.failed > 0) out.fail("some instances failed a verdict");
  if (on_sim && std::adjacent_find(digests.begin(), digests.end(),
                                   std::not_equal_to<>()) != digests.end()) {
    out.fail("protocol_digest differs between traced repetitions");
  }
  const bool allocs_repeat =
      std::adjacent_find(alloc_counts.begin(), alloc_counts.end(),
                         std::not_equal_to<>()) == alloc_counts.end();

  // --- probes ---------------------------------------------------------------
  // The probes share what is left of --seconds: about 60% of it, more when
  // the traced-session cap ended the session phase early, never under 30%.
  constexpr double kSlices = 10.5;  // the `slice` multiples the probes below take
  const double slice =
      std::max(seconds - seconds_between(run_start, Clock::now()), 0.3 * seconds) /
      kSlices;
  Rng rng(seed ^ 0x5eedULL);

  // harness: one plain single-instance run; finalize of one instance fed
  // the session-wide metrics, as Session::run builds its input.
  const PerOp run_one = per_op(slice, [&] {
    if (!req.scalar.empty()) {
      g_sink = g_sink + harness::run(req.scalar.front()).all_output;
    } else {
      g_sink = g_sink + harness::run(req.vec.front()).all_output;
    }
    return 1.0;
  });
  FinalizeInput fin = finalize_input(req);
  fin.res.metrics = shape;
  const PerOp finalize = per_op(slice, [&] {
    for (int i = 0; i < 16; ++i) {
      exec::ExecResult ri = fin.res;
      if (!req.scalar.empty()) {
        g_sink = g_sink + harness::finalize(req.scalar.front(), ri, fin.scalar).agreement_ok;
      } else {
        g_sink = g_sink +
                 harness::finalize(req.vec.front(), ri, fin.vec, fin.views).agreement_ok;
      }
    }
    return 16.0;
  });
  calib.push_back(calib_kernel_ms());

  // Transport layers: the null protocol on every backend.
  const NullShape ns = null_shape(w, shape);
  // The executor and link-layer counters come from these runs too, so the
  // runtime and netio layers are measured on every workload.
  double null_ns[3] = {};
  std::size_t null_samples[3] = {};
  const BackendKind kinds[3] = {BackendKind::kSim, BackendKind::kThread,
                                BackendKind::kSocket};
  std::vector<double> claims, steal_frac, idle, retx_rate, retx_bytes;
  for (int b = 0; b < 3; ++b) {
    const PerOp p = per_op(slice, [&] {
      const NullRun r = run_null(w, req, kinds[b], ns, nullptr);
      if (!r.ok) out.fail("null protocol run did not complete");
      if (kinds[b] == BackendKind::kThread) {
        claims.push_back(static_cast<double>(r.exec.claims));
        steal_frac.push_back(quotient(static_cast<double>(r.exec.steals),
                                      static_cast<double>(r.exec.claims + r.exec.steals)));
        idle.push_back(static_cast<double>(r.exec.idle_spins));
      } else if (kinds[b] == BackendKind::kSocket) {
        retx_rate.push_back(r.metrics.retransmit_rate());
        retx_bytes.push_back(static_cast<double>(r.metrics.retransmit_bytes) / K);
      }
      return static_cast<double>(std::max<std::uint64_t>(1, r.deliveries));
    });
    null_ns[b] = p.seconds * 1e9;
    null_samples[b] = p.samples;
  }
  std::vector<double> waits[2];
  for (int b = 1; b < 3; ++b) {
    obs::TraceSink sink(kNullRing);
    if (!run_null(w, req, kinds[b], ns, &sink).ok) {
      out.fail("traced null protocol run did not complete");
    }
    if (sink.dropped() > 0) out.fail("trace ring wrapped in a null run");
    waits[b - 1] = deliver_waits_us(sink.snapshot(), w.n, ns.bytes);
  }
  calib.push_back(calib_kernel_ms());

  // Codec, envelope/batch and metrics replay over the workload's tag mix,
  // packed at the workload's frames per packet.
  const std::vector<Bytes> frames = codec_sample(w, shape, rng);
  const double nf = static_cast<double>(frames.size());
  std::vector<std::function<Bytes()>> encoders;
  for (const auto& f : frames) encoders.push_back(encoder(f));
  const PerOp enc = per_op(slice / 2, [&] {
    std::size_t s = 0;
    for (const auto& e : encoders) s += e().size();
    g_sink = s;
    return nf;
  });
  const PerOp dec = per_op(slice / 2, [&] {
    std::size_t s = 0;
    for (const auto& f : frames) s += decode(f);
    g_sink = s;
    return nf;
  });
  const double mpp = shape.msgs_per_packet();
  const auto per_packet = static_cast<std::size_t>(
      std::clamp(std::round(mpp), 1.0, static_cast<double>(kBatchCap)));
  std::vector<Bytes> envelopes, packets;
  const PerOp env_enc = per_op(slice / 4, [&] {
    envelopes.clear();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      envelopes.push_back(net::encode_envelope(
          static_cast<std::uint32_t>(i % w.instances), frames[i]));
    }
    return nf;
  });
  const PerOp batch_enc = per_op(slice / 4, [&] {
    packets.clear();
    for (std::size_t i = 0; i < envelopes.size(); i += per_packet) {
      const std::size_t c = std::min(per_packet, envelopes.size() - i);
      packets.push_back(c == 1 ? envelopes[i]
                               : net::encode_batch(std::span(envelopes).subspan(i, c)));
    }
    return nf;
  });
  const PerOp batch_dec = per_op(slice / 4, [&] {
    std::size_t s = 0;
    for (const auto& p : packets) s += net::unpack_packet(p).size();
    g_sink = s;
    return nf;
  });
  std::vector<BytesView> views_of;
  for (const auto& p : packets) {
    for (BytesView f : net::unpack_packet(p)) views_of.push_back(f);
  }
  const PerOp env_dec = per_op(slice / 4, [&] {
    std::size_t s = 0;
    for (BytesView f : views_of) s += net::decode_envelope(f)->instance;
    g_sink = s;
    return nf;
  });
  const PerOp note_send = per_op(slice, [&] {
    net::Metrics m;
    m.reset(w.n);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      m.note_send(static_cast<ProcessId>(i % w.n), packets[i]);
    }
    g_sink = m.messages_sent;
    return static_cast<double>(packets.size());
  });
  calib.push_back(calib_kernel_ms());

  // Collect, averaging and safe-area rule on views shaped like the inputs.
  const auto in0 = req.scalar.empty() ? std::vector<double>{} : req.scalar.front().inputs;
  const PerOp collect = per_op(slice, [&] {
    double views = 0;
    for (int i = 0; i < 8; ++i) {
      views += w.convex ? equalized_collect(w, req.vec.front().inputs)
                        : round_collect(w, in0);
    }
    return views;
  });
  const std::uint32_t m = w.n - w.t;
  constexpr std::size_t kViews = 64;
  std::vector<std::vector<std::vector<double>>> points(kViews);
  std::vector<std::vector<double>> scalars(kViews);
  for (std::size_t v = 0; v < kViews; ++v) {
    const double span = w.convex ? 1.0 : 1.0 + 0.25 * (v % 8);
    for (std::uint32_t i = 0; i < m; ++i) {
      std::vector<double> p(w.dim);
      for (auto& x : p) x = rng.next_double(0.0, span);
      scalars[v].push_back(p[0]);
      points[v].push_back(std::move(p));
    }
  }
  const PerOp avg = per_op(slice / 2, [&] {
    double s = 0;
    for (const auto& v : scalars) s += core::apply_averager(core::Averager::kMean, v, w.t);
    g_sink = static_cast<std::uint64_t>(s);
    return static_cast<double>(kViews);
  });
  const PerOp safe = per_op(slice, [&] {
    double s = 0;
    for (const auto& v : points) s += geom::safe_midpoint(v, w.t).point[0];
    g_sink = static_cast<std::uint64_t>(s);
    return static_cast<double>(kViews);
  });
  calib.push_back(calib_kernel_ms());

  // --- report ---------------------------------------------------------------
  const std::size_t ns_ = loop.sessions;
  const double msgs = static_cast<double>(shape.messages_sent);
  const double deliveries = static_cast<double>(shape.messages_delivered) / K;
  const double frames_per_inst = msgs / K;
  const auto tag = [&](std::initializer_list<std::size_t> tags) {
    double s = 0;
    for (std::size_t t : tags) s += static_cast<double>(shape.sent_by_tag[t]);
    return s / K;
  };
  const double plain_p50 = median(plain_ms);
  const std::size_t np = plain_ms.size();

  out.add("harness.run_us_per_inst", run_one.seconds * 1e6, "us", run_one.samples,
          "plain harness::run of one instance on the workload's backend");
  out.add("harness.finalize_us_per_inst", finalize.seconds * 1e6, "us",
          finalize.samples, "synthetic ExecResult with session metrics + finalize");
  out.add("net.sim_ns_per_delivery", null_ns[0], "ns", null_samples[0],
          "null protocol on exec::SimBackend");
  out.add("net.deliveries_per_inst", deliveries, "count", 1);
  out.add("sim.steps_per_session", median(steps), "count", np);
  out.add("sim.fanned_steps_per_session", median(fanned), "count", np);
  out.add("net.pack_ns_per_frame", (env_enc.seconds + batch_enc.seconds) * 1e9, "ns",
          env_enc.samples, "encode_envelope + encode_batch");
  out.add("net.unpack_ns_per_frame", (batch_dec.seconds + env_dec.seconds) * 1e9, "ns",
          env_dec.samples, "unpack_packet + decode_envelope");
  out.add("net.msgs_per_packet", mpp, "count", 1);
  out.add("net.packets_per_inst", static_cast<double>(shape.packets_sent) / K, "count", 1);
  out.add("net.note_send_ns_per_packet", note_send.seconds * 1e9, "ns", note_send.samples);
  out.add("core.encode_ns_per_frame", enc.seconds * 1e9, "ns", enc.samples,
          "workload tag mix");
  out.add("core.decode_ns_per_frame", dec.seconds * 1e9, "ns", dec.samples,
          "workload tag mix");
  out.add("core.frames_per_inst", frames_per_inst, "count", 1);
  out.add("core.collect_us_per_view", collect.seconds * 1e6, "us", collect.samples,
          w.convex ? "equalized engines, FIFO context" : "RoundCollectors, FIFO order");
  out.add("core.views_per_inst", views_per_inst, "count", 1);
  out.add("core.avg_ns_per_view", avg.seconds * 1e9, "ns", avg.samples,
          "apply_averager(kMean) on n - t values");
  out.add("geom.safe_midpoint_us_per_view", safe.seconds * 1e6, "us", safe.samples,
          "n - t points of the workload's dimension");
  out.add("rb.send_per_inst", tag({3, 8}), "count", 1);
  out.add("rb.echo_per_inst", tag({4, 9}), "count", 1);
  out.add("rb.ready_per_inst", tag({5, 10}), "count", 1);
  out.add("rb.report_per_inst", tag({6}), "count", 1);
  out.add("runtime.ns_per_delivery", null_ns[1], "ns", null_samples[1],
          "null protocol on exec::ThreadBackend");
  out.add("runtime.deliver_wait_us_p50", percentile(waits[0], 50), "us",
          waits[0].size(), "traced null run, kSend -> kDeliver");
  out.add("runtime.deliver_wait_us_p99", percentile(waits[0], 99), "us",
          waits[0].size(), "traced null run, kSend -> kDeliver");
  out.add("runtime.claims_per_session", median(claims), "count", claims.size(),
          "null protocol on exec::ThreadBackend");
  out.add("runtime.steal_frac", median(steal_frac), "frac", steal_frac.size(),
          "null protocol on exec::ThreadBackend");
  out.add("runtime.idle_spins_per_session", median(idle), "count", idle.size(),
          "null protocol on exec::ThreadBackend");
  out.add("netio.ns_per_delivery", null_ns[2], "ns", null_samples[2],
          "null protocol on exec::SocketBackend, 5% loss");
  out.add("netio.retransmit_rate", median(retx_rate), "frac", retx_rate.size(),
          "null protocol on exec::SocketBackend, 5% loss");
  out.add("netio.retransmit_bytes_per_inst", median(retx_bytes), "B", retx_bytes.size(),
          "null protocol on exec::SocketBackend, 5% loss");
  out.add("netio.deliver_wait_us_p50", percentile(waits[1], 50), "us",
          waits[1].size(), "traced null run, kSend -> kDeliver");
  out.add("netio.deliver_wait_us_p99", percentile(waits[1], 99), "us",
          waits[1].size(), "traced null run, kSend -> kDeliver");
  out.add("obs.trace_overhead_frac", median(traced_ms) / plain_p50 - 1.0, "frac",
          traced_ms.size(), "traced / untraced session_ms_p50 - 1");
  out.add("obs.events_per_inst", events_per_inst, "count", traced_ms.size());
  out.add("proc.allocs_per_inst", median(allocs), "count", allocs.size(),
          allocs_repeat ? "repeats exactly" : "does NOT repeat exactly");
  out.add("proc.alloc_bytes_per_inst", median(alloc_bytes), "B", alloc_bytes.size());
  out.add("proc.minor_faults_per_session", median(faults), "count", faults.size());
  out.add("machine.calib_ms", median(calib), "ms", calib.size(),
          "reported beside the run, never used to scale it");
  out.add("sim.finish_delta_p50", on_sim ? loop.first.finish_p50 : 0.0, "delta", ns_,
          on_sim ? "repeats exactly" : "not a simulator workload");
  out.add("sim.finish_delta_p99", on_sim ? loop.first.finish_p99 : 0.0, "delta", ns_,
          on_sim ? "repeats exactly" : "not a simulator workload");

  // Attribution: per-call cost x calls per instance over the layers on the
  // workload's path.  The transport term (null protocol on the workload's
  // backend) includes batch framing and Metrics::note_send, which the
  // transports do themselves, so only the router's envelope work is added.
  // The equalized collect probe decodes its own frames, so convex_rb adds no
  // separate codec term.
  const double transport = null_ns[w.backend == BackendKind::kSim      ? 0
                                   : w.backend == BackendKind::kThread ? 1
                                                                       : 2];
  const double envelope = (env_enc.seconds + env_dec.seconds) * 1e9;
  const double codec = w.convex ? 0.0 : (enc.seconds + dec.seconds) * 1e9;
  const double rule = w.convex ? safe.seconds * 1e9 : avg.seconds * 1e9;
  const double attributed = transport * deliveries + (envelope + codec) * frames_per_inst +
                            (collect.seconds * 1e9 + rule) * views_per_inst +
                            finalize.seconds * 1e9;
  const double per_inst_ns = plain_p50 * 1e6 / K;
  char note[160];
  std::snprintf(note, sizeof note,
                "of %.0f ns/inst: transport %.0f, envelope+codec %.0f, "
                "collect+rule %.0f, finalize %.0f",
                per_inst_ns, transport * deliveries, (envelope + codec) * frames_per_inst,
                (collect.seconds * 1e9 + rule) * views_per_inst, finalize.seconds * 1e9);
  out.add("attributed_frac", attributed / per_inst_ns, "frac", np, note);
  return out;
}

}  // namespace aabench
