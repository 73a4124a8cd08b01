// Workload definitions, the closed-loop client and the end-to-end run.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/bounds.hpp"

namespace aabench {

// --- statistics ---------------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank > 0 ? rank - 1 : 0)];
}

Tail tail(std::vector<double> xs, std::size_t beyond) {
  const std::size_t n = xs.size();
  if (n <= beyond) return {};
  std::sort(xs.begin(), xs.end());
  // The (n - beyond)-th smallest sample has exactly `beyond` above it.
  return {100.0 * static_cast<double>(n - beyond) / static_cast<double>(n),
          xs[n - beyond - 1]};
}

WindowedTail windowed_tail(const std::vector<double>& xs, std::size_t min_window) {
  const std::size_t w = std::max<std::size_t>(1, xs.size() / min_window);
  std::vector<double> values;
  double pct = 100.0;
  for (std::size_t i = 0; i < w; ++i) {
    const auto first = xs.begin() + static_cast<std::ptrdiff_t>(i * xs.size() / w);
    const auto last = xs.begin() + static_cast<std::ptrdiff_t>((i + 1) * xs.size() / w);
    const Tail t = tail(std::vector<double>(first, last));
    values.push_back(t.value);
    pct = std::min(pct, t.pct);
  }
  return {{pct, median(values)}, w};
}

// --- process counters ---------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

/// CPU time of the whole process (every thread), in seconds.  The
/// end-to-end times are CPU times: the kernel leaves out time the hypervisor
/// steals from the vCPUs and time other tasks hold them, which made the wall
/// times of identical runs spread by more than half on a shared host.
static double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

volatile double g_calib_sink;

double calib_kernel_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xffff) * 1e-6;
  }
  const auto t1 = Clock::now();
  // Keep the loop observable so it cannot be folded away.
  g_calib_sink = acc;
  return seconds_between(t0, t1) * 1e3;
}

// --- workloads ----------------------------------------------------------

const std::vector<Workload>& workloads() {
  using harness::BackendKind;
  static const std::vector<Workload> all{
      {"sim_service", BackendKind::kSim, false, 1024, 5, 1, 1, 0.0},
      {"thread_service", BackendKind::kThread, false, 256, 5, 1, 1, 0.0},
      {"socket_lossy", BackendKind::kSocket, false, 256, 4, 1, 1, kSocketLoss},
      {"convex_rb", BackendKind::kSim, true, 16, 7, 2, 2, 0.0},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Request make_request(const Workload& w, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t sched_seed = rng.next_u64();
  netio::FaultConfig faults;
  faults.loss = w.loss;
  faults.seed = rng.next_u64();
  Request req;
  for (std::size_t k = 0; k < w.instances; ++k) {
    if (!w.convex) {
      harness::RunConfig cfg;
      cfg.params = {w.n, w.t};
      cfg.protocol = harness::ProtocolKind::kCrashRound;
      cfg.averager = core::Averager::kMean;
      cfg.mode = core::TerminationMode::kFixedRounds;
      cfg.fixed_rounds = kRounds;
      // Input spans vary per instance, as in f7, so instances are not
      // identical work items.
      cfg.inputs = harness::random_inputs(rng, w.n, 0.0, 1.0 + 0.25 * (k % 8));
      // The proven contraction of the mean rule, (n - t) / t per round,
      // sets the agreement bound after kRounds rounds.
      const auto [lo, hi] = std::minmax_element(cfg.inputs.begin(), cfg.inputs.end());
      const double factor = core::predicted_factor_crash_async_mean(w.n, w.t);
      cfg.epsilon = (*hi - *lo) / std::pow(factor, kRounds) * (1.0 + 1e-9);
      cfg.sched = harness::SchedKind::kRandom;
      cfg.seed = sched_seed;
      cfg.backend = w.backend;
      cfg.thread_timeout = std::chrono::milliseconds{60'000};
      cfg.socket_faults = faults;
      req.scalar.push_back(std::move(cfg));
    } else {
      harness::VectorRunConfig cfg;
      cfg.params = {w.n, w.t};
      cfg.protocol = harness::ProtocolKind::kVectorConvexRB;
      cfg.dim = w.dim;
      cfg.fixed_rounds = kRounds;
      cfg.inputs = harness::random_vector_inputs(rng, w.n, w.dim, 0.0, 1.0);
      cfg.epsilon = kConvexEpsilon;
      cfg.sched = harness::SchedKind::kRandom;
      cfg.seed = sched_seed;
      cfg.backend = w.backend;
      cfg.thread_timeout = std::chrono::milliseconds{60'000};
      cfg.socket_faults = faults;
      req.vec.push_back(std::move(cfg));
    }
  }
  return req;
}

harness::Session make_session(const Request& req, obs::TraceSink* trace) {
  harness::SessionOptions opts;
  opts.batching = kBatchCap;
  opts.force_multiplex = true;
  opts.trace = trace;
  harness::Session s(opts);
  for (const auto& c : req.scalar) s.add(c);
  for (const auto& c : req.vec) s.add(c);
  return s;
}

std::size_t failed_instances(const Workload& w, const harness::SessionReport& rep) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < w.instances; ++i) {
    bool ok = false;
    if (w.convex) {
      const auto& r = rep.vector_reports.at(i);
      ok = r && r->all_output && r->box_validity_ok && r->agreement_ok &&
           r->convex_validity_ok && r->view_overlap_ok;
    } else {
      const auto& r = rep.scalar_reports.at(i);
      ok = r && r->all_output && r->validity_ok && r->agreement_ok;
    }
    if (!ok) ++failed;
  }
  return failed;
}

// --- the closed loop ----------------------------------------------------

SessionSample run_session(const Workload& w, const Request& req,
                          obs::TraceSink* trace) {
  SessionSample s;
  const double c0 = process_cpu_s();
  harness::Session session = make_session(req, trace);
  const double c1 = process_cpu_s();
  const auto t1 = Clock::now();
  const harness::SessionReport rep = session.run();
  const auto t2 = Clock::now();
  const double c2 = process_cpu_s();
  s.setup_s = c1 - c0;
  s.run_ms = seconds_between(t1, t2) * 1e3;
  s.run_cpu_ms = (c2 - c1) * 1e3;
  s.failed = failed_instances(w, rep);
  s.metrics = rep.metrics;
  s.exec = rep.exec_stats;
  s.finish_p50 = percentile(rep.finish_times, 50.0);
  s.finish_p99 = percentile(rep.finish_times, 99.0);
  return s;
}

bool same_counters(const SessionSample& a, const SessionSample& b) {
  return a.metrics.messages_sent == b.metrics.messages_sent &&
         a.metrics.packets_sent == b.metrics.packets_sent &&
         a.metrics.payload_bytes == b.metrics.payload_bytes &&
         a.metrics.sent_by_tag == b.metrics.sent_by_tag &&
         a.finish_p50 == b.finish_p50 && a.finish_p99 == b.finish_p99;
}

void LoopStats::note(const Workload& w, const SessionSample& s, Result& out) {
  if (sessions == 0) {
    first = s;
  } else if (w.backend == harness::BackendKind::kSim && !drifted &&
             !same_counters(first, s)) {
    drifted = true;
    out.fail("simulator counters drifted between repetitions of one request");
  }
  ++sessions;
  run_ms.push_back(s.run_ms);
  run_cpu_ms.push_back(s.run_cpu_ms);
  setup_s.push_back(s.setup_s);
  messages += s.metrics.messages_sent;
  wire_bytes += s.metrics.payload_bytes + s.metrics.retransmit_bytes;
  out.attempted += w.instances;
  out.failed += s.failed;
}

Result run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  Result out;
  const Request req = make_request(w, seed);
  // Warm-up sessions (checked, not timed): lazy allocations and page faults
  // of the first requests are not service time.
  const auto warm_start = Clock::now();
  do {
    if (run_session(w, req, nullptr).failed > 0) {
      out.fail("warm-up session failed verdicts");
      break;
    }
  } while (seconds_between(warm_start, Clock::now()) < kWarmupSeconds);

  LoopStats loop;
  const std::uint64_t faults0 = minor_faults();
  std::vector<double> calib{calib_kernel_ms()};
  const auto start = Clock::now();
  auto next_calib = start;
  while (seconds_between(start, Clock::now()) < seconds ||
         loop.sessions < kMinSessions) {
    loop.note(w, run_session(w, req, nullptr), out);
    if (Clock::now() >= next_calib) {
      calib.push_back(calib_kernel_ms());
      next_calib = Clock::now() + std::chrono::milliseconds(500);
    }
  }
  if (out.failed > 0) out.fail("some instances failed a verdict");
  const double faults = static_cast<double>(minor_faults() - faults0) /
                        static_cast<double>(loop.sessions);

  const double insts = static_cast<double>(loop.sessions * w.instances);
  double total_s = 0.0, total_cpu_s = 0.0;
  for (double ms : loop.run_ms) total_s += ms / 1e3;
  for (double ms : loop.run_cpu_ms) total_cpu_s += ms / 1e3;
  const auto tail_note = [&](const WindowedTail& wt) {
    char note[128];
    std::snprintf(note, sizeof note, "p%.1f, median over %zu windows of %zu sessions",
                  wt.tail.pct, wt.windows, loop.sessions);
    return std::string(note);
  };
  const WindowedTail cpu_tail = windowed_tail(loop.run_cpu_ms, kTailWindow);
  const WindowedTail wall_tail = windowed_tail(loop.run_ms, kTailWindow);

  out.add("inst_per_cpu_s", insts / total_cpu_s, "1/s", loop.sessions,
          "instances per CPU second of the process");
  out.add("session_cpu_ms_p50", median(loop.run_cpu_ms), "ms", loop.sessions);
  out.add("session_cpu_ms_tail", cpu_tail.tail.value, "ms", loop.sessions,
          tail_note(cpu_tail));
  out.add("msgs_per_inst", static_cast<double>(loop.messages) / insts, "count",
          loop.sessions);
  out.add("wire_bytes_per_inst", static_cast<double>(loop.wire_bytes) / insts,
          "B", loop.sessions, "payload + retransmit bytes");
  out.add("ok_frac", 1.0 - static_cast<double>(out.failed) / insts, "frac",
          loop.sessions, "instances decided and passing every verdict");
  out.add("setup_s", median(loop.setup_s), "s", loop.setup_s.size(),
          "CPU time per request: Session construction + K add()");
  out.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  // Wall-clock views of the same sessions, as a user waits for them.  They
  // follow the host's steal phases, so they are printed but not gated.
  out.add("inst_per_s", insts / total_s, "1/s", loop.sessions);
  out.metrics.back().in_json = false;
  out.add("session_ms_p50", median(loop.run_ms), "ms", loop.sessions);
  out.metrics.back().in_json = false;
  out.add("session_ms_tail", wall_tail.tail.value, "ms", loop.sessions,
          tail_note(wall_tail));
  out.metrics.back().in_json = false;
  out.add("machine.calib_ms", median(calib), "ms", calib.size(),
          "reported beside the run, never used to scale it");
  out.metrics.back().in_json = false;
  out.add("proc.minor_faults_per_session", faults, "count", loop.sessions);
  out.metrics.back().in_json = false;
  return out;
}

}  // namespace aabench
