// Shared declarations of the repository benchmark (aabench).
//
// A workload is one closed-loop AA service: a single client submits one
// harness::Session of K instances, waits for it to return, checks every
// verdict, and submits the next.  Every session of a run is the same
// request, derived from --seed, so deterministic counters must repeat
// exactly on the simulator.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/session.hpp"

namespace aabench {

using namespace apxa;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- statistics ---------------------------------------------------------

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> xs);

/// Nearest-rank percentile, p in [0, 100]; 0 when empty.
double percentile(std::vector<double> xs, double p);

/// The highest percentile with `beyond` samples above it: the
/// (n - beyond)-th smallest sample, at percentile 100 (n - beyond) / n.
/// Zero when there are too few samples.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
};
Tail tail(std::vector<double> xs, std::size_t beyond = 10);

/// The tail of a long series, steadied against host speed phases: the
/// series is cut into `windows` runs of consecutive samples of at least
/// `min_window` each, and the median of the per-window tails is reported
/// (with the smallest window's percentile).  A series shorter than two
/// windows gives the plain tail.
struct WindowedTail {
  Tail tail;
  std::size_t windows = 1;
};
WindowedTail windowed_tail(const std::vector<double>& xs, std::size_t min_window);

// --- allocation counters (alloc_hook.cpp) -------------------------------

struct AllocCount {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
void alloc_counting(bool on);
AllocCount alloc_snapshot();

// --- process counters ---------------------------------------------------

double peak_rss_mb();
std::uint64_t minor_faults();

/// A fixed CPU-bound kernel; returns its wall time in ms.  Recorded beside
/// the measurements to expose the host's speed phases, never used to scale
/// them.
double calib_kernel_ms();

// --- workloads ----------------------------------------------------------

inline constexpr Round kRounds = 4;
inline constexpr std::uint32_t kBatchCap = 8;
/// Seeded datagram loss of socket_lossy and of the socket null protocol.
inline constexpr double kSocketLoss = 0.05;

struct Workload {
  const char* name;
  harness::BackendKind backend;
  bool convex;            ///< kVectorConvexRB instances; else kCrashRound
  std::size_t instances;  ///< K, instances per session
  std::uint32_t n, t, dim;
  double loss;            ///< socket_faults.loss
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// The K instance configs of one session request, derived from `seed`.
struct Request {
  std::vector<harness::RunConfig> scalar;
  std::vector<harness::VectorRunConfig> vec;
};
Request make_request(const Workload& w, std::uint64_t seed);

/// Session over the request with the workload's options: cap-8 batching,
/// force_multiplex, every executor knob at its library default.
harness::Session make_session(const Request& req, obs::TraceSink* trace);

/// Instances of `rep` that did not decide or failed a verdict the workload
/// checks.
std::size_t failed_instances(const Workload& w, const harness::SessionReport& rep);

/// L-infinity agreement bound of convex_rb: the halving rate, 2^-kRounds,
/// from inputs in the unit box.  (With every party honest the equalized
/// views make the gap about 1e-16 in practice.)
inline constexpr double kConvexEpsilon = 0.0625;

/// Sessions per session_ms_tail window: each window's tail is then at
/// least its p90.  Host speed phases of a few seconds inflate the run-wide
/// p99 of the threaded workloads several-fold; the median of window tails
/// stays put unless most of the run is slow.
inline constexpr std::size_t kTailWindow = 100;

/// Fewest timed sessions per run, whatever --seconds says: the tail
/// percentile needs at least ten sessions beyond it.
inline constexpr std::size_t kMinSessions = 21;

/// Untimed warm-up before the closed loop: on convex_rb the sessions of the
/// first second ran about a third slower than the rest.
inline constexpr double kWarmupSeconds = 1.0;

// --- metrics output -----------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
  bool in_json = true;  ///< false: printed as text only
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit,
           std::size_t samples, std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), samples,
                       std::move(note), true});
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

// --- the closed loop ----------------------------------------------------

/// One request served: set-up CPU time, service wall and CPU times, and the
/// report's counters (the per-instance reports are dropped).
struct SessionSample {
  double setup_s = 0.0;     ///< process CPU time of the set-up
  double run_ms = 0.0;      ///< wall time of run()
  double run_cpu_ms = 0.0;  ///< process CPU time of run()
  std::size_t failed = 0;
  net::Metrics metrics;
  obs::ExecStats exec;
  double finish_p50 = 0.0;
  double finish_p99 = 0.0;
};

/// Build the request's session (timed as set-up), run it (timed as service,
/// in wall and in CPU time) and check its verdicts.
SessionSample run_session(const Workload& w, const Request& req,
                          obs::TraceSink* trace);

/// Accumulates the timed sessions of a run.  On the simulator every session
/// must repeat the first one's counters exactly; drift fails the run.
struct LoopStats {
  std::size_t sessions = 0;
  std::vector<double> run_ms;
  std::vector<double> run_cpu_ms;
  std::vector<double> setup_s;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  SessionSample first;
  bool drifted = false;

  void note(const Workload& w, const SessionSample& s, Result& out);
};

/// The end-to-end run (--trace 0): untraced closed loop for `seconds`.
Result run_end_to_end(const Workload& w, std::uint64_t seed, double seconds);

/// The traced run (--trace 1): per-layer metrics from alternating traced and
/// untraced sessions plus the layer probes of probes.cpp.
Result run_layers(const Workload& w, std::uint64_t seed, double seconds);

}  // namespace aabench
