// Real-network UDP runtime: the same Process objects, real sockets.
//
// Third transport next to the deterministic simulator (net::SimNetwork) and
// the in-process threaded runtime (rt::ThreadNetwork): every party runs as a
// thread that owns ONE loopback UDP socket and speaks to each peer through a
// retransmit+ack perfect link (netio/link.hpp), so the protocol state
// machines execute against genuine packet loss, duplication-at-the-wire,
// reordering and OS scheduling — the asynchronous message-passing model the
// paper assumes, realized by an actual network stack instead of a scheduler
// abstraction.  Seated behind exec::SocketBackend, every existing
// ProtocolKind x scheduler x adversary scenario runs unchanged over sockets
// (the simulator-only scheduler/seed knobs are ignored, as on the threaded
// runtime).
//
// Topology modes:
//   all-local  (the backend path) — all n parties are threads in this
//     process, sockets bound to ephemeral loopback ports; the port table is
//     assembled after binding, so concurrent runs never collide.
//   multi-process (examples/socket_party) — fixed ports base_port + id; only
//     some parties are local (set_party_remote + add_process_at), the rest
//     are reachable addresses.  Completion waits on LOCAL correct parties
//     only, and a linger window keeps the link layer retransmitting after
//     the local decision so slower peers still converge.
//
// Fault injection mirrors the other transports (crash_after_sends counts
// LOGICAL sends, multicast order, byzantine bookkeeping, per-destination
// batching), and a deterministic loss/reorder/delay shim (netio/fault.hpp)
// at the socket boundary makes retransmission paths CI-testable: fault
// decisions are a pure function of the seed, while the perfect link restores
// eventual delivery above them.
//
// Metrics: logical accounting is IDENTICAL to the other transports
// (note_send per original packet; retransmissions count only in
// packets_retransmitted / retransmit_bytes, so messages_sent and
// msgs_per_packet stay batching- and loss-invariant).  Delivery latency is
// real wall clock, recorded into the per-tag histogram scaled by
// kSocketLatencySpan (the full histogram range spans that many seconds).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "net/metrics.hpp"
#include "net/process.hpp"
#include "netio/fault.hpp"
#include "netio/link.hpp"
#include "netio/udp.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace apxa::rt {

/// Seconds spanned by the full delivery-latency histogram on this transport:
/// 32 buckets over 32 ms = 1 ms resolution, sized for loopback RTTs plus
/// injected delays.  Quantiles from net::Metrics::latency_quantile are in
/// units of this span (multiply by kSocketLatencySpan * 1e3 for ms).
inline constexpr double kSocketLatencySpan = 0.032;

class SocketNetwork final {
 public:
  /// Per-process completion probe; evaluated by the party's own socket
  /// thread between deliveries, only while the party is correct.  Empty =
  /// "has produced an output".
  using DonePredicate = std::function<bool(const net::Process&)>;

  explicit SocketNetwork(SystemParams params);
  ~SocketNetwork();

  SocketNetwork(const SocketNetwork&) = delete;
  SocketNetwork& operator=(const SocketNetwork&) = delete;

  /// Register party `id == number added so far` (all-local mode).
  void add_process(std::unique_ptr<net::Process> p);
  /// Register a specific local party (multi-process mode; pair with
  /// set_party_remote for the peers this OS process does not host).
  void add_process_at(ProcessId id, std::unique_ptr<net::Process> p);
  /// Declare `p` hosted by another OS process at base_port + p (requires
  /// set_fixed_ports).  Must precede run().
  void set_party_remote(ProcessId p);

  /// Mark a party crashed: future sends and deliveries drop.  Safe while
  /// running.
  void crash(ProcessId p);
  /// Crash `p` immediately before its (count+1)-th LOGICAL send (transport-
  /// parity semantics; count == 0 crashes it at startup).  Must precede
  /// run().
  void crash_after_sends(ProcessId p, std::uint64_t count);
  /// Receiver order used by p's multicasts.  Must precede run().
  void set_multicast_order(ProcessId p, std::vector<ProcessId> order);
  /// Bookkeeping: excluded from completion waits and correct-party
  /// accessors.  Must precede run().
  void mark_byzantine(ProcessId p);
  /// Completion probe run() waits on.  Must precede run().
  void set_done_predicate(DonePredicate pred);
  /// Per-destination send batching (cap <= net::kMaxBatchFrames frames per
  /// packet); crash budgets keep counting logical sends.  Must precede
  /// run().
  void enable_batching(std::uint32_t max_frames);
  /// Trace sink (null disables; the default).  Link-layer send / deliver /
  /// drop / retransmit events are recorded from the party threads.  Must
  /// precede run().
  void set_trace(obs::TraceSink* sink);

  /// Deterministic loss/reorder/delay injection at the socket boundary.
  /// Must precede run().
  void set_fault_config(const netio::FaultConfig& cfg);
  /// Perfect-link tuning (retransmission timeouts, queue bound).  Must
  /// precede run().
  void set_link_config(const netio::LinkConfig& cfg);
  /// Fixed port table: party p binds (or is reached at) 127.0.0.1:base + p.
  /// Default is ephemeral ports, all-local only.  Must precede run().
  void set_fixed_ports(std::uint16_t base_port);
  /// Keep servicing the link layer (acks, retransmits) this long after the
  /// local completion predicate holds — multi-process mode, where remote
  /// peers may still need our retransmissions.  Default 0.
  void set_linger(std::chrono::milliseconds linger);

  /// Bind sockets, start one thread per local party, wait until every local
  /// correct party satisfies the completion probe or the timeout elapses;
  /// service the linger window; stop and join.  Returns true when all local
  /// correct parties completed.
  bool run(std::chrono::milliseconds timeout);

  /// Decisions of the local correct parties (in id order) that have decided.
  [[nodiscard]] std::vector<std::vector<double>> correct_vector_outputs() const;
  [[nodiscard]] const net::Metrics& metrics() const { return metrics_; }
  [[nodiscard]] SystemParams params() const { return params_; }
  [[nodiscard]] bool is_correct(ProcessId p) const;
  [[nodiscard]] bool is_local(ProcessId p) const;
  [[nodiscard]] bool has_output(ProcessId p) const;
  /// Wall-clock seconds from run() start; +inf where no output.
  [[nodiscard]] double output_time(ProcessId p) const;
  /// True when every LOCAL correct party has produced an output.
  [[nodiscard]] bool all_correct_output() const;
  /// One worker thread per local party.
  [[nodiscard]] obs::ExecStats exec_stats() const { return exec_stats_; }

  /// Per-local-party link-layer state as JSONL lines (unacked queue depth,
  /// last sequence seen per peer, retransmit/duplicate counters) — the
  /// flight-recorder payload for failed verdicts on this backend.  Valid
  /// after run() returned.
  [[nodiscard]] std::vector<std::string> link_state_jsonl() const;
  /// Aggregated link counters over every local party.  Valid after run().
  [[nodiscard]] netio::LinkStats link_totals() const;

 private:
  struct DelayedDatagram {
    ProcessId to = 0;
    Bytes dgram;
    std::chrono::steady_clock::time_point release;
  };

  /// Everything one party's socket thread owns exclusively.
  struct Party {
    std::unique_ptr<net::Process> proc;  // null for remote parties
    bool remote = false;
    bool started = false;
    netio::UdpSocket sock;
    std::vector<netio::PeerLink> links;  // by peer id; self entry unused
    std::unique_ptr<netio::FaultShim> shim;
    std::deque<DelayedDatagram> delayed;  // shim-held outgoing datagrams
    /// Deliveries decoded while pumping for resend-queue capacity mid-send;
    /// drained by the main loop so protocol upcalls never nest.
    std::deque<std::pair<ProcessId, netio::Delivered>> pending;
  };

  class ContextImpl;

  void party_loop(ProcessId p, std::stop_token st);
  void post(ProcessId from, ProcessId to, Bytes payload);
  void post_packet(ProcessId from, ProcessId to, Bytes payload);
  void flush_sender(ProcessId from);
  void link_send(ProcessId from, ProcessId to, const Bytes& packet,
                 const std::stop_token& st);
  /// Shim verdict + socket write for one encoded link datagram.
  void emit_datagram(ProcessId from, ProcessId to, Bytes dgram,
                     std::chrono::steady_clock::time_point now);
  /// Drain the socket; acks are consumed inline, payloads queue as pending.
  void pump_socket(ProcessId p, std::uint32_t wait_us);
  void drain_pending(ProcessId p, const std::stop_token& st);
  void deliver_frame(ProcessId p, ProcessId from, BytesView frame);
  void service_timers(ProcessId p, const std::stop_token& st);
  void publish(ProcessId p);
  /// The running party thread's stop token (sends only happen on it).
  [[nodiscard]] const std::stop_token& stop_token_of(ProcessId p) const;
  [[nodiscard]] std::uint64_t total_unacked() const;

  SystemParams params_;
  std::vector<Party> parties_;
  std::vector<netio::UdpAddress> addr_;            // filled at run()
  std::unordered_map<std::uint16_t, ProcessId> port_to_id_;
  netio::FaultConfig fault_cfg_;
  netio::LinkConfig link_cfg_;
  std::uint16_t base_port_ = 0;                    // 0 = ephemeral
  std::chrono::milliseconds linger_{0};

  std::vector<std::atomic<bool>> crashed_;
  std::vector<bool> byzantine_;
  std::vector<std::atomic<std::uint64_t>> sends_made_;
  std::vector<std::uint64_t> send_limit_;
  std::vector<std::vector<ProcessId>> multicast_order_;
  std::uint32_t max_batch_ = 0;
  std::vector<std::vector<std::vector<Bytes>>> batch_buf_;  // [from][to]
  std::vector<std::atomic<std::uint64_t>> unacked_now_;  // per local party

  std::vector<std::atomic<bool>> has_output_;
  std::vector<std::vector<double>> output_vec_;
  std::vector<std::atomic<double>> output_time_;
  std::vector<std::atomic<bool>> done_;
  DonePredicate done_pred_;
  std::chrono::steady_clock::time_point start_time_;
  std::vector<std::jthread> threads_;
  net::Metrics metrics_;
  std::mutex metrics_mu_;
  std::atomic<bool> started_{false};
  obs::TraceSink* trace_ = nullptr;
  obs::ExecStats exec_stats_;
  std::size_t registered_ = 0;
  /// Per-party pointer to its own thread's stop token, set by party_loop;
  /// only ever read from that same thread (sends are thread-confined).
  std::vector<const std::stop_token*> current_stop_;
  std::vector<std::string> link_jsonl_;   // snapshot taken at end of run()
  netio::LinkStats link_totals_;

  static constexpr std::uint64_t kNoLimit = UINT64_MAX;
};

}  // namespace apxa::rt
