#include "netio/socket_net.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>
#include <utility>

#include "common/ensure.hpp"
#include "net/envelope.hpp"

namespace apxa::rt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
using Clock = std::chrono::steady_clock;
}  // namespace

class SocketNetwork::ContextImpl final : public net::Context {
 public:
  ContextImpl(SocketNetwork& net, ProcessId self, const std::stop_token& st)
      : net_(net), self_(self), st_(st) {}

  void send(ProcessId to, Bytes payload) override {
    APXA_ENSURE(to < net_.params_.n, "send: receiver out of range");
    APXA_ENSURE(to != self_, "send: no self-messages");
    net_.post(self_, to, std::move(payload));
  }

  void multicast(const Bytes& payload) override {
    const auto& order = net_.multicast_order_[self_];
    if (!order.empty()) {
      for (ProcessId to : order) net_.post(self_, to, payload);
      return;
    }
    for (ProcessId to = 0; to < net_.params_.n; ++to) {
      if (to == self_) continue;
      net_.post(self_, to, payload);
    }
  }

  [[nodiscard]] ProcessId self() const override { return self_; }
  [[nodiscard]] SystemParams params() const override { return net_.params_; }
  [[nodiscard]] const std::stop_token& stop_token() const { return st_; }

 private:
  SocketNetwork& net_;
  ProcessId self_;
  const std::stop_token& st_;
};

SocketNetwork::SocketNetwork(SystemParams params)
    : params_(params),
      parties_(params.n),
      crashed_(params.n),
      byzantine_(params.n, false),
      sends_made_(params.n),
      send_limit_(params.n, kNoLimit),
      multicast_order_(params.n),
      unacked_now_(params.n),
      has_output_(params.n),
      output_vec_(params.n),
      output_time_(params.n),
      done_(params.n) {
  APXA_ENSURE(params_.n >= 1 && params_.t < params_.n, "bad system params");
  // One socket fd per local party; stay well under default fd limits.
  APXA_ENSURE(params_.n <= 512, "socket backend supports at most 512 parties");
  for (std::uint32_t i = 0; i < params_.n; ++i) {
    crashed_[i] = false;
    sends_made_[i] = 0;
    unacked_now_[i] = 0;
    has_output_[i] = false;
    output_time_[i] = kInf;
    done_[i] = false;
  }
  metrics_.reset(params_.n);
}

SocketNetwork::~SocketNetwork() {
  for (auto& th : threads_) th.request_stop();
  // jthread joins on destruction; party loops poll their stop token at
  // millisecond granularity.
}

void SocketNetwork::add_process(std::unique_ptr<net::Process> p) {
  ProcessId id = 0;
  while (id < params_.n && (parties_[id].proc || parties_[id].remote)) ++id;
  add_process_at(id, std::move(p));
}

void SocketNetwork::add_process_at(ProcessId id, std::unique_ptr<net::Process> p) {
  APXA_ENSURE(!started_.load(), "cannot add processes after run()");
  APXA_ENSURE(p != nullptr, "null process");
  APXA_ENSURE(id < params_.n, "process id out of range");
  APXA_ENSURE(!parties_[id].remote, "party is declared remote");
  APXA_ENSURE(!parties_[id].proc, "party already has a process");
  parties_[id].proc = std::move(p);
  ++registered_;
}

void SocketNetwork::set_party_remote(ProcessId p) {
  APXA_ENSURE(!started_.load(), "set_party_remote must precede run()");
  APXA_ENSURE(p < params_.n, "party id out of range");
  APXA_ENSURE(!parties_[p].proc, "party already has a local process");
  parties_[p].remote = true;
}

void SocketNetwork::crash(ProcessId p) {
  APXA_ENSURE(p < params_.n, "crash id out of range");
  crashed_[p] = true;
}

void SocketNetwork::crash_after_sends(ProcessId p, std::uint64_t count) {
  APXA_ENSURE(p < params_.n, "crash id out of range");
  APXA_ENSURE(!started_.load(), "crash_after_sends must precede run()");
  send_limit_[p] = count;
  if (count == 0) crashed_[p] = true;
}

void SocketNetwork::set_multicast_order(ProcessId p, std::vector<ProcessId> order) {
  APXA_ENSURE(p < params_.n, "multicast order id out of range");
  APXA_ENSURE(!started_.load(), "set_multicast_order must precede run()");
  for (ProcessId q : order) {
    APXA_ENSURE(q < params_.n && q != p, "multicast order must list other parties");
  }
  multicast_order_[p] = std::move(order);
}

void SocketNetwork::mark_byzantine(ProcessId p) {
  APXA_ENSURE(p < params_.n, "byzantine id out of range");
  APXA_ENSURE(!started_.load(), "mark_byzantine must precede run()");
  byzantine_[p] = true;
}

void SocketNetwork::set_done_predicate(DonePredicate pred) {
  APXA_ENSURE(!started_.load(), "set_done_predicate must precede run()");
  done_pred_ = std::move(pred);
}

void SocketNetwork::enable_batching(std::uint32_t max_frames) {
  APXA_ENSURE(max_frames >= 1 && max_frames <= net::kMaxBatchFrames,
              "batch cap must be in [1, kMaxBatchFrames]");
  APXA_ENSURE(!started_.load(), "enable_batching must precede run()");
  max_batch_ = max_frames;
  batch_buf_.assign(params_.n, std::vector<std::vector<Bytes>>(params_.n));
}

void SocketNetwork::set_trace(obs::TraceSink* sink) {
  APXA_ENSURE(!started_.load(), "set_trace must precede run()");
  trace_ = sink;
}

void SocketNetwork::set_fault_config(const netio::FaultConfig& cfg) {
  APXA_ENSURE(!started_.load(), "set_fault_config must precede run()");
  fault_cfg_ = cfg;
}

void SocketNetwork::set_link_config(const netio::LinkConfig& cfg) {
  APXA_ENSURE(!started_.load(), "set_link_config must precede run()");
  link_cfg_ = cfg;
}

void SocketNetwork::set_fixed_ports(std::uint16_t base_port) {
  APXA_ENSURE(!started_.load(), "set_fixed_ports must precede run()");
  APXA_ENSURE(base_port > 0, "base port must be nonzero");
  APXA_ENSURE(base_port + params_.n <= 65'536, "port range overflows");
  base_port_ = base_port;
}

void SocketNetwork::set_linger(std::chrono::milliseconds linger) {
  APXA_ENSURE(!started_.load(), "set_linger must precede run()");
  linger_ = linger;
}

void SocketNetwork::post(ProcessId from, ProcessId to, Bytes payload) {
  // Same logical-send accounting as the other transports: the crash budget
  // counts FRAMES at the moment the protocol sends them, before batching and
  // before any link-layer framing or retransmission.  A party's sends all
  // happen on its own socket thread, so the counter needs no cross-send
  // synchronization.
  if (crashed_[from].load(std::memory_order_relaxed)) {
    if (trace_) trace_->record(obs::EventKind::kDrop, from, to, -1, 0.0, 0.0);
    std::scoped_lock lock(metrics_mu_);
    ++metrics_.messages_dropped;
    return;
  }
  const std::uint64_t made = sends_made_[from].fetch_add(1, std::memory_order_relaxed);
  if (made >= send_limit_[from]) {
    crashed_[from].store(true, std::memory_order_relaxed);
    if (trace_) {
      trace_->record(obs::EventKind::kCrash, from, from, -1,
                     static_cast<double>(made), 0.0);
      trace_->record(obs::EventKind::kDrop, from, to, -1, 0.0, 0.0);
    }
    std::scoped_lock lock(metrics_mu_);
    ++metrics_.messages_dropped;
    return;
  }

  if (max_batch_ > 0 && !payload.empty() &&
      static_cast<std::uint8_t>(payload[0]) != net::kBatchTag) {
    auto& buf = batch_buf_[from][to];
    buf.push_back(std::move(payload));
    if (buf.size() >= max_batch_) {
      Bytes packet = net::encode_batch(std::span<const Bytes>(buf));
      buf.clear();
      post_packet(from, to, std::move(packet));
    }
  } else {
    post_packet(from, to, std::move(payload));
  }

  if (made + 1 >= send_limit_[from]) {
    crashed_[from].store(true, std::memory_order_relaxed);
    if (trace_) {
      trace_->record(obs::EventKind::kCrash, from, from, -1,
                     static_cast<double>(made + 1), 0.0);
    }
  }
}

void SocketNetwork::post_packet(ProcessId from, ProcessId to, Bytes payload) {
  if (trace_) {
    trace_->record(obs::EventKind::kSend, from, to, -1,
                   static_cast<double>(payload.size()), 0.0);
  }
  {
    std::scoped_lock lock(metrics_mu_);
    metrics_.note_send(from, payload);
  }
  link_send(from, to, payload, stop_token_of(from));
}

void SocketNetwork::flush_sender(ProcessId from) {
  if (max_batch_ == 0) return;
  for (ProcessId to = 0; to < params_.n; ++to) {
    auto& buf = batch_buf_[from][to];
    if (buf.empty()) continue;
    Bytes packet = buf.size() == 1
                       ? std::move(buf.front())
                       : net::encode_batch(std::span<const Bytes>(buf));
    buf.clear();
    post_packet(from, to, std::move(packet));
  }
}

void SocketNetwork::link_send(ProcessId from, ProcessId to, const Bytes& packet,
                              const std::stop_token& st) {
  Party& me = parties_[from];
  netio::PeerLink& link = me.links[to];
  // Bounded resend queue = backpressure: pump our own socket (acks shrink the
  // queue; DATA frames park in `pending` so protocol upcalls never nest) and
  // keep the retransmit timers honest while we wait.
  while (!link.has_capacity()) {
    if (st.stop_requested()) return;  // shutdown: message abandoned mid-run
    service_timers(from, st);
    pump_socket(from, 1'000);
  }
  const auto now = Clock::now();
  Bytes dgram = link.make_data(packet, now);
  emit_datagram(from, to, std::move(dgram), now);
}

void SocketNetwork::emit_datagram(ProcessId from, ProcessId to, Bytes dgram,
                                  Clock::time_point now) {
  Party& me = parties_[from];
  if (me.shim) {
    switch (me.shim->decide()) {
      case netio::FaultShim::Fate::kDrop:
        if (trace_) {
          trace_->record(obs::EventKind::kDrop, from, to, -1,
                         static_cast<double>(dgram.size()), 0.0);
        }
        return;  // the retransmit timer will try again
      case netio::FaultShim::Fate::kDelay:
        me.delayed.push_back(DelayedDatagram{
            to, std::move(dgram),
            now + std::chrono::microseconds(fault_cfg_.delay_us)});
        return;
      case netio::FaultShim::Fate::kPass:
        break;
    }
  }
  // A refused send (full kernel buffer) is indistinguishable from wire loss;
  // retransmission recovers either way.
  me.sock.send_to(addr_[to], dgram);
}

void SocketNetwork::pump_socket(ProcessId p, std::uint32_t wait_us) {
  Party& me = parties_[p];
  if (wait_us > 0) me.sock.wait_readable(wait_us);
  netio::UdpAddress src_addr;
  std::vector<netio::Delivered> got;
  while (auto dgram = me.sock.recv_from(src_addr)) {
    const auto it = port_to_id_.find(src_addr.port);
    if (it == port_to_id_.end()) continue;  // stray datagram, not a peer
    const ProcessId src = it->second;
    if (src == p) continue;
    got.clear();
    me.links[src].on_datagram(*dgram, Clock::now(), got);
    for (auto& d : got) me.pending.emplace_back(src, std::move(d));
  }
}

void SocketNetwork::drain_pending(ProcessId p, const std::stop_token& st) {
  Party& me = parties_[p];
  while (!me.pending.empty()) {
    if (st.stop_requested()) return;
    auto [src, d] = std::move(me.pending.front());
    me.pending.pop_front();
    // Link-level receipt already happened (the payload was acked and
    // deduplicated); a crashed party additionally drops the PROTOCOL
    // delivery, mirroring the other transports where crashed parties stop
    // processing but the wire keeps moving.
    if (crashed_[p].load(std::memory_order_relaxed)) continue;
    {
      std::scoped_lock lock(metrics_mu_);
      metrics_.note_delivery(d.payload, d.latency_s / kSocketLatencySpan);
    }
    if (max_batch_ > 0) {
      for (const BytesView frame : net::unpack_packet(d.payload)) {
        deliver_frame(p, src, frame);
      }
      flush_sender(p);
    } else {
      deliver_frame(p, src, d.payload);
    }
    publish(p);
  }
}

void SocketNetwork::deliver_frame(ProcessId p, ProcessId from, BytesView frame) {
  if (trace_) trace_->record(obs::EventKind::kDeliver, from, p, -1, 1.0, 0.0);
  {
    std::scoped_lock lock(metrics_mu_);
    ++metrics_.messages_delivered;
  }
  ContextImpl ctx(*this, p, stop_token_of(p));
  parties_[p].proc->on_message(ctx, from, frame);
}

void SocketNetwork::service_timers(ProcessId p, const std::stop_token& st) {
  (void)st;
  Party& me = parties_[p];
  const auto now = Clock::now();
  // Release shim-held datagrams whose delay elapsed (their fate is already
  // decided; they go straight to the wire).
  while (!me.delayed.empty() && me.delayed.front().release <= now) {
    DelayedDatagram d = std::move(me.delayed.front());
    me.delayed.pop_front();
    me.sock.send_to(addr_[d.to], d.dgram);
  }
  std::vector<Bytes> resends;
  for (ProcessId q = 0; q < params_.n; ++q) {
    if (q == p) continue;
    netio::PeerLink& link = me.links[q];
    resends.clear();
    link.collect_retransmits(now, resends);
    for (Bytes& r : resends) {
      // Physical-only accounting: retransmissions never touch the logical
      // counters (messages_sent, per-tag/round/instance), so msgs_per_packet
      // and message-complexity numbers stay loss-invariant.
      {
        std::scoped_lock lock(metrics_mu_);
        metrics_.note_retransmit(r.size());
      }
      if (trace_) {
        trace_->record(obs::EventKind::kRetransmit, p, q, -1,
                       static_cast<double>(r.size()), 0.0);
      }
      emit_datagram(p, q, std::move(r), now);
    }
    // Acks not about to piggyback on DATA go out as pure ACK frames so
    // one-directional traffic still gets acknowledged.
    if (auto ack = link.take_ack_frame()) {
      emit_datagram(p, q, std::move(*ack), now);
    }
  }
}

void SocketNetwork::publish(ProcessId p) {
  if (!has_output_[p].load(std::memory_order_acquire)) {
    if (parties_[p].proc->has_output()) {
      const std::chrono::duration<double> since = Clock::now() - start_time_;
      if (auto vy = parties_[p].proc->vector_output()) {
        output_vec_[p] = std::move(*vy);
      }
      output_time_[p].store(since.count(), std::memory_order_release);
      has_output_[p].store(true, std::memory_order_release);
    }
  }
  if (!byzantine_[p] && !crashed_[p].load(std::memory_order_relaxed) &&
      !done_[p].load(std::memory_order_acquire)) {
    const bool d = done_pred_ ? done_pred_(*parties_[p].proc)
                              : has_output_[p].load(std::memory_order_acquire);
    if (d) done_[p].store(true, std::memory_order_release);
  }
}

void SocketNetwork::party_loop(ProcessId p, std::stop_token st) {
  Party& me = parties_[p];
  current_stop_[p] = &st;
  if (!me.started) {
    me.started = true;
    if (!crashed_[p].load(std::memory_order_relaxed)) {
      ContextImpl ctx(*this, p, st);
      me.proc->on_start(ctx);
      flush_sender(p);
      publish(p);
    }
  }
  while (!st.stop_requested()) {
    // Wait until the earliest timer (retransmit deadline or shim release) or
    // at most 1 ms; incoming datagrams cut the wait short via poll().
    std::uint32_t wait_us = 1'000;
    const auto now = Clock::now();
    auto earliest = Clock::time_point::max();
    for (ProcessId q = 0; q < params_.n; ++q) {
      if (q == p) continue;
      earliest = std::min(earliest, me.links[q].next_deadline());
    }
    if (!me.delayed.empty()) {
      earliest = std::min(earliest, me.delayed.front().release);
    }
    if (earliest != Clock::time_point::max()) {
      wait_us = earliest <= now
                    ? 0
                    : static_cast<std::uint32_t>(std::min<std::int64_t>(
                          1'000,
                          std::chrono::duration_cast<std::chrono::microseconds>(
                              earliest - now)
                              .count()));
    }
    pump_socket(p, wait_us);
    drain_pending(p, st);
    service_timers(p, st);
    std::uint64_t inflight = 0;
    for (ProcessId q = 0; q < params_.n; ++q) {
      if (q != p) inflight += me.links[q].unacked();
    }
    unacked_now_[p].store(inflight, std::memory_order_relaxed);
  }
  current_stop_[p] = nullptr;
}

const std::stop_token& SocketNetwork::stop_token_of(ProcessId p) const {
  APXA_ASSERT(current_stop_[p] != nullptr,
              "send outside the party's socket thread");
  return *current_stop_[p];
}

bool SocketNetwork::run(std::chrono::milliseconds timeout) {
  std::uint32_t local_count = 0;
  for (ProcessId p = 0; p < params_.n; ++p) {
    const Party& party = parties_[p];
    APXA_ENSURE(party.remote || party.proc != nullptr,
                "every party needs a process or a remote declaration");
    if (party.remote) {
      APXA_ENSURE(base_port_ != 0, "remote parties require set_fixed_ports");
    } else {
      ++local_count;
    }
  }
  APXA_ENSURE(local_count >= 1, "no local parties to run");
  APXA_ENSURE(!started_.exchange(true), "run() called twice");

  // Bind local sockets first (ephemeral ports resolve here), then assemble
  // the full address and port->party tables.
  for (ProcessId p = 0; p < params_.n; ++p) {
    Party& party = parties_[p];
    if (party.remote) continue;
    party.sock.bind(base_port_ == 0 ? 0 : static_cast<std::uint16_t>(base_port_ + p));
    party.links.assign(params_.n, netio::PeerLink(link_cfg_));
    if (fault_cfg_.enabled()) {
      party.shim = std::make_unique<netio::FaultShim>(fault_cfg_, p);
    }
  }
  addr_.assign(params_.n, netio::UdpAddress{});
  port_to_id_.clear();
  for (ProcessId p = 0; p < params_.n; ++p) {
    addr_[p].port = parties_[p].remote
                        ? static_cast<std::uint16_t>(base_port_ + p)
                        : parties_[p].sock.port();
    port_to_id_[addr_[p].port] = p;
  }
  current_stop_.assign(params_.n, nullptr);

  start_time_ = Clock::now();
  threads_.reserve(local_count);
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (parties_[p].remote) continue;
    threads_.emplace_back(
        [this, p](std::stop_token st) { party_loop(p, std::move(st)); });
  }

  const auto deadline = start_time_ + timeout;
  auto all_done = [this] {
    for (ProcessId p = 0; p < params_.n; ++p) {
      if (parties_[p].remote) continue;
      if (crashed_[p].load() || byzantine_[p]) continue;
      if (!done_[p].load(std::memory_order_acquire)) return false;
    }
    return true;
  };
  bool done = false;
  for (;;) {
    done = all_done();
    if (done || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Linger: keep party threads servicing acks/retransmits so remote peers
  // that decided later still drain our resend queues.
  if (done && linger_ > std::chrono::milliseconds(0)) {
    const auto linger_end = Clock::now() + linger_;
    while (Clock::now() < linger_end && total_unacked() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  for (auto& th : threads_) th.request_stop();
  for (auto& th : threads_) {
    if (th.joinable()) th.join();
  }

  // Quiescent now: snapshot link-layer state for the flight recorder and
  // aggregate counters while the party structs are safe to read.
  link_jsonl_.clear();
  link_totals_ = netio::LinkStats{};
  for (ProcessId p = 0; p < params_.n; ++p) {
    const Party& party = parties_[p];
    if (party.remote) continue;
    netio::LinkStats agg;
    std::size_t unacked_left = 0;
    std::ostringstream seqs;
    seqs << "[";
    for (ProcessId q = 0; q < params_.n; ++q) {
      if (q > 0) seqs << ",";
      if (q == p) {
        seqs << 0;
        continue;
      }
      const netio::LinkStats& s = party.links[q].stats();
      agg.data_sent += s.data_sent;
      agg.retransmits += s.retransmits;
      agg.data_received += s.data_received;
      agg.delivered += s.delivered;
      agg.duplicates_dropped += s.duplicates_dropped;
      agg.acks_sent += s.acks_sent;
      agg.acks_received += s.acks_received;
      agg.malformed += s.malformed;
      agg.unacked_peak = std::max(agg.unacked_peak, s.unacked_peak);
      unacked_left += party.links[q].unacked();
      seqs << party.links[q].last_seq_seen();
    }
    seqs << "]";
    link_totals_.data_sent += agg.data_sent;
    link_totals_.retransmits += agg.retransmits;
    link_totals_.data_received += agg.data_received;
    link_totals_.delivered += agg.delivered;
    link_totals_.duplicates_dropped += agg.duplicates_dropped;
    link_totals_.acks_sent += agg.acks_sent;
    link_totals_.acks_received += agg.acks_received;
    link_totals_.malformed += agg.malformed;
    link_totals_.unacked_peak =
        std::max(link_totals_.unacked_peak, agg.unacked_peak);
    std::ostringstream line;
    line << "{\"party\":" << p << ",\"unacked\":" << unacked_left
         << ",\"unacked_peak\":" << agg.unacked_peak
         << ",\"data_sent\":" << agg.data_sent
         << ",\"retransmits\":" << agg.retransmits
         << ",\"delivered\":" << agg.delivered
         << ",\"duplicates_dropped\":" << agg.duplicates_dropped
         << ",\"acks_sent\":" << agg.acks_sent
         << ",\"acks_received\":" << agg.acks_received
         << ",\"malformed\":" << agg.malformed << ",\"shim_dropped\":"
         << (party.shim ? party.shim->dropped() : 0) << ",\"shim_delayed\":"
         << (party.shim ? party.shim->delayed() : 0)
         << ",\"last_seq_seen\":" << seqs.str() << "}";
    link_jsonl_.push_back(line.str());
  }

  exec_stats_ = obs::ExecStats{};
  exec_stats_.workers = local_count;
  return done;
}

std::uint64_t SocketNetwork::total_unacked() const {
  std::uint64_t total = 0;
  for (ProcessId p = 0; p < params_.n; ++p) {
    total += unacked_now_[p].load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::vector<double>> SocketNetwork::correct_vector_outputs() const {
  std::vector<std::vector<double>> out;
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (parties_[p].remote || !is_correct(p)) continue;
    if (has_output_[p].load(std::memory_order_acquire)) {
      out.push_back(output_vec_[p]);
    }
  }
  return out;
}

bool SocketNetwork::is_correct(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return !crashed_[p].load() && !byzantine_[p];
}

bool SocketNetwork::is_local(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return !parties_[p].remote;
}

bool SocketNetwork::has_output(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return has_output_[p].load(std::memory_order_acquire);
}

double SocketNetwork::output_time(ProcessId p) const {
  APXA_ENSURE(p < params_.n, "process id out of range");
  return output_time_[p].load(std::memory_order_acquire);
}

bool SocketNetwork::all_correct_output() const {
  for (ProcessId p = 0; p < params_.n; ++p) {
    if (parties_[p].remote) continue;
    if (is_correct(p) && !has_output_[p].load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> SocketNetwork::link_state_jsonl() const {
  return link_jsonl_;
}

netio::LinkStats SocketNetwork::link_totals() const { return link_totals_; }

}  // namespace apxa::rt
