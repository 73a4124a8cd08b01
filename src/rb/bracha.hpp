// Bracha's asynchronous reliable broadcast (Information & Computation 1987),
// multiplexed over (instance, origin) pairs.  The payload is a point in R^d
// (scalar protocols broadcast 1-point payloads) on the RBVEC wire, tags
// kRbVecSend/kRbVecEcho/kRbVecReady.  The hub is the transport of the
// equalized collect layer (core/collect.hpp), which runs the AAD'04 witness
// protocol (ProtocolKind::kWitness, d = 1) and the convex protocol
// (ProtocolKind::kVectorConvexRB).  Scalar RB frames (tags 3-5) are not
// this hub's wire: handle() leaves them unconsumed.
//
// Preconditions (checked in the constructor):
//   - n > 3t — below this bound two ECHO quorums need not intersect in a
//     correct party and agreement is forfeit;
//   - a non-null delivery callback.
//
// Guarantees with n > 3t (byzantine faults, authenticated channels):
//   validity    — if a correct origin broadcasts v, every correct party
//                 eventually delivers (origin, v);
//   agreement   — no two correct parties deliver different values for the
//                 same (instance, origin) — in particular, an equivocating
//                 origin either has ONE of its values delivered everywhere
//                 or none anywhere, never a split;
//   uniqueness  — each party delivers at most one value per (instance,
//                 origin): the slot's `delivered` latch makes a second
//                 delivery structurally impossible;
//   totality    — if any correct party delivers, every correct party
//                 eventually delivers (provided correct parties keep feeding
//                 the hub, even after their own protocol finished — see
//                 handle() below).
//
// Message flow for one (instance, origin):
//   origin multicasts SEND(v)
//   on SEND(v) from the origin itself: multicast ECHO(v)          (once)
//   on n - t ECHO(v):                  multicast READY(v)         (once)
//   on t + 1 READY(v):                 multicast READY(v)         (once)
//   on 2t + 1 READY(v):                deliver v                  (once)
//
// Thresholds, and why exactly these:
//   n - t  ECHO  — the largest quorum a correct party can always collect;
//                  two such quorums share n - 2t >= t + 1 parties, at least
//                  one correct, so no two READY waves carry different values;
//   t + 1  READY — more than the byzantine parties can forge alone, so a
//                  correct READY wave exists and amplification cannot be
//                  attacker-initiated; this echo of READYs gives totality;
//   2t + 1 READY — at least t + 1 correct READYs, enough that every correct
//                  party will eventually see the t + 1 needed to join the
//                  wave, so one correct delivery forces all.
//
// The hub is a component embedded in a Process: the owner feeds every
// incoming payload to handle(), which returns true when it consumed an RB
// message.  Own ECHO/READY votes are counted locally without self-messages.
// Cost per broadcast: O(n^2) messages — the reason the equalized collect
// layer (and with it the witness technique) costs Theta(n^3) per round.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/ids.hpp"
#include "core/codec.hpp"
#include "net/process.hpp"

namespace apxa::rb {

/// Bracha RB hub carrying R^d points.  Votes are tallied per distinct point
/// (std::vector's lexicographic operator<).
class BrachaHub {
 public:
  using Value = std::vector<double>;

  /// Called exactly once per (instance, origin) on delivery — the
  /// `delivered` latch below enforces the at-most-once half, the READY
  /// quorum the at-least half.
  using DeliverFn = std::function<void(net::Context&, std::uint32_t instance,
                                       ProcessId origin, const Value& value)>;

  /// Requires params.n > 3t and a non-null callback (throws otherwise).
  BrachaHub(SystemParams params, DeliverFn on_deliver);

  /// Reliably broadcast `value` under `instance` (the caller is the origin).
  /// Multicasts SEND and processes the local copy immediately (own ECHO).
  void broadcast(net::Context& ctx, std::uint32_t instance, const Value& value);

  /// Feed an incoming payload; returns true if it was an RBVEC message.
  /// MUST keep being called for the lifetime of the party — even after the
  /// owning protocol has decided — or laggards lose the echoes/readies
  /// totality depends on.
  bool handle(net::Context& ctx, ProcessId from, BytesView payload);

  /// Number of (instance, origin) slots with state (diagnostics).
  [[nodiscard]] std::size_t live_slots() const { return slots_.size(); }

 private:
  struct Slot {
    bool echoed = false;
    bool ready_sent = false;
    bool delivered = false;
    std::map<Value, std::set<ProcessId>> echoes;
    std::map<Value, std::set<ProcessId>> readies;
    /// One ECHO and one READY per voter per slot, whatever the value —
    /// honest parties never send more, and without the cap a byzantine
    /// voter could grow the vote maps (one node per distinct forged value)
    /// without bound at every honest party.
    std::set<ProcessId> echo_voters;
    std::set<ProcessId> ready_voters;
  };

  using Key = std::pair<std::uint32_t, ProcessId>;

  void add_echo(net::Context& ctx, const Key& key, ProcessId voter,
                const Value& value);
  void add_ready(net::Context& ctx, const Key& key, ProcessId voter,
                 const Value& value);
  void send_echo(net::Context& ctx, const Key& key, const Value& value);
  void send_ready(net::Context& ctx, const Key& key, const Value& value);

  SystemParams params_;
  DeliverFn deliver_;
  std::map<Key, Slot> slots_;
};

}  // namespace apxa::rb
