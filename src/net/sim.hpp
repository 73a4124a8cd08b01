// Deterministic discrete-event simulator for the asynchronous network model.
//
// Model (Fekete / DLPSW):
//  - n parties, fully connected, reliable authenticated point-to-point links;
//  - the adversary schedules deliveries arbitrarily but must eventually
//    deliver messages between correct parties — realized here by requiring
//    every delay to lie in (0, Delta] with Delta = 1.0 (so virtual time is
//    already "round-normalized": finishing at time R means R rounds);
//  - up to t parties fail.  Crash faults are injected by the simulator
//    (a party stops mid-execution; a multicast in progress reaches only the
//    receivers already sent to).  Byzantine parties are ordinary Process
//    implementations that misbehave (the per-receiver send() interface gives
//    them full equivocation power).
//
// Determinism: events are ordered by (delivery_time, sequence number), and
// all randomness comes from seeded Rng instances, so a simulation replays
// bit-identically from its configuration.
//
// Execution is one serial event loop: pop the earliest pending event, run
// the receiver's upcall, enqueue what it sends, repeat.  Harness hooks that
// fire inside an upcall (trace maps, trace records) therefore run at their
// natural point in the event order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "common/ensure.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"
#include "net/metrics.hpp"
#include "net/process.hpp"
#include "net/status.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"

namespace apxa::net {

enum class PartyStatus : std::uint8_t { kCorrect, kCrashed, kByzantine };

/// Always 1: the simulator is serial.  Kept only because perfbench/ calls it.
[[nodiscard]] inline std::uint32_t resolved_sim_workers(std::uint32_t, bool,
                                                        std::uint32_t) {
  return 1;
}

class SimNetwork final {
 public:
  /// The scheduler decides per-message delays; the network owns it.
  SimNetwork(SystemParams params, std::unique_ptr<sched::Scheduler> scheduler);

  /// Register party `id == number of parties added so far`.  All n parties
  /// must be added before start().
  void add_process(std::unique_ptr<Process> p);

  /// Declare a party byzantine (for bookkeeping: invariant checks and the
  /// "correct parties" accessors skip it).  Must be called before start().
  void mark_byzantine(ProcessId p);

  /// Crash `p` immediately before its (count+1)-th send: the first `count`
  /// sends of its lifetime go out, everything after is dropped, and `p`
  /// receives no further deliveries.  count == 0 crashes it at startup.
  void crash_after_sends(ProcessId p, std::uint64_t count);

  /// Crash `p` at the first event at or after virtual time `time`.
  void crash_at_time(ProcessId p, double time);

  /// Override the receiver order used by p's multicasts.  Combined with
  /// crash_after_sends this lets the adversary pick exactly which subset of
  /// receivers a crashing multicast reaches.
  void set_multicast_order(ProcessId p, std::vector<ProcessId> order);

  /// Enable link-level duplication: each sent message is delivered a second
  /// time with probability `prob` (independent delay).  The model's links
  /// are reliable but say nothing about at-most-once delivery; correct
  /// protocols must be idempotent, and this knob proves they are.
  void enable_duplication(double prob, std::uint64_t seed);

  /// Enable per-destination send batching: frames produced during one upcall
  /// are buffered per receiver and flushed as one batch packet (cap
  /// `max_frames` <= net::kMaxBatchFrames) when the upcall returns.  Crash
  /// semantics stay LOGICAL: crash_after_sends counts frames, and frames
  /// buffered before the crash point still flush.  Off by default — the
  /// unbatched path is byte-identical to pre-batching builds.
  void enable_batching(std::uint32_t max_frames);

  /// Attach a trace sink (null disables tracing; the default).  The sink
  /// must outlive the network.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] obs::TraceSink* trace() const { return trace_; }

  /// Invoke on_start on every party (in id order) at time 0.
  void start();

  /// Deliver messages until the predicate holds, the queue drains, or the
  /// budget is exhausted.  The predicate is checked after every delivery.
  RunStatus run_until(const std::function<bool()>& pred,
                      std::uint64_t max_deliveries = 50'000'000);

  /// Per-party completion probe: `done(p, process(p))` is consulted only for
  /// currently-correct parties.
  using PartyDone = std::function<bool(ProcessId, const Process&)>;

  /// Deliver until every correct party satisfies `done` (empty = "has
  /// produced an output"), the queue drains, or the budget is exhausted:
  /// run_until over the all-correct-done conjunction.
  RunStatus run_until_done(const PartyDone& done,
                           std::uint64_t max_deliveries = 50'000'000);

  /// Deliver until the queue drains (or budget).
  RunStatus run(std::uint64_t max_deliveries = 50'000'000);

  /// True when every correct party has produced an output.
  [[nodiscard]] bool all_correct_output() const;

  [[nodiscard]] Process& process(ProcessId p);
  [[nodiscard]] const Process& process(ProcessId p) const;
  [[nodiscard]] PartyStatus status(ProcessId p) const;
  [[nodiscard]] bool is_correct(ProcessId p) const {
    return status(p) == PartyStatus::kCorrect;
  }
  [[nodiscard]] SystemParams params() const { return params_; }
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }

  /// Decisions of all currently-correct parties (in id order) that have
  /// decided; scalar protocols decide 1-points.
  [[nodiscard]] std::vector<std::vector<double>> correct_vector_outputs() const;

  /// Virtual time at which party p produced its output (checked after each
  /// delivery); infinity if it has not output.
  [[nodiscard]] double output_time(ProcessId p) const;

 private:
  struct Pending {
    double time;        // delivery time
    std::uint64_t seq;  // tiebreak
    Message msg;
    bool operator>(const Pending& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  class ContextImpl;

  void do_send(ProcessId from, ProcessId to, Bytes payload);
  void do_multicast(ProcessId from, const Bytes& payload);
  void enqueue_packet(ProcessId from, ProcessId to, Bytes payload);
  void flush_sender(ProcessId from);
  void apply_timed_crashes(double up_to);
  void note_outputs();

  SystemParams params_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<PartyStatus> status_;
  std::vector<std::uint64_t> sends_made_;
  std::vector<std::uint64_t> crash_send_limit_;  // kNoLimit if none
  std::vector<double> crash_time_;               // +inf if none
  std::vector<std::vector<ProcessId>> multicast_order_;
  std::vector<double> output_time_;

  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> queue_;
  Metrics metrics_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
  bool started_ = false;
  double duplication_prob_ = 0.0;
  std::optional<Rng> duplication_rng_;
  std::uint32_t max_batch_ = 0;  // 0 = batching off
  std::vector<std::vector<std::vector<Bytes>>> batch_buf_;  // [from][to]
  obs::TraceSink* trace_ = nullptr;

  static constexpr std::uint64_t kNoLimit = UINT64_MAX;
};

}  // namespace apxa::net
