// Protocol process interface.
//
// Protocol logic is written as an event-driven state machine against this
// interface, independent of the transport that runs it.  The same Process
// objects run on the deterministic simulator (net::SimNetwork) and on the
// threaded runtime (rt::ThreadNetwork).
//
// Conventions:
//  - multicast(payload) sends to every *other* party; a process accounts for
//    its own contribution locally (the classic "n - t values including your
//    own" rule is implemented inside the protocols).
//  - A decision is a point in R^d; scalar protocols decide a 1-point.
//    vector_output() becomes non-empty at most once and never changes
//    afterwards.  has_output() is the allocation-free "has decided" probe
//    transports poll for completion; a deciding process overrides both.
//  - Byzantine parties are ordinary Process implementations that misbehave;
//    per-receiver send() already gives them full equivocation power.
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"

namespace apxa::net {

/// Transport handle given to a process on every upcall.
class Context {
 public:
  virtual ~Context() = default;

  /// Send payload to one party.  Sending to self is a usage error; protocols
  /// consume their own values directly.
  virtual void send(ProcessId to, Bytes payload) = 0;

  /// Send payload to every other party (n - 1 point-to-point messages).
  virtual void multicast(const Bytes& payload) = 0;

  [[nodiscard]] virtual ProcessId self() const = 0;
  [[nodiscard]] virtual SystemParams params() const = 0;
};

class Process {
 public:
  virtual ~Process() = default;

  /// Called once, before any message delivery.
  virtual void on_start(Context& ctx) = 0;

  /// Called for each delivered message.
  virtual void on_message(Context& ctx, ProcessId from, BytesView payload) = 0;

  /// True once the protocol has decided.  Transports poll this after every
  /// upcall, so it must stay allocation free.
  [[nodiscard]] virtual bool has_output() const { return output().has_value(); }

  /// The decision, a point in R^d; empty until has_output().  Stable once
  /// set.  Transports and the harness read decisions only through this.
  [[nodiscard]] virtual std::optional<std::vector<double>> vector_output() const {
    return std::nullopt;
  }

 protected:
  /// Completion-only hook behind the default has_output(): nothing reads a
  /// value from it, so a process that overrides only this finishes without
  /// deciding a value.  Kept because the repository benchmark's null
  /// protocol (perfbench/src/probes.cpp) overrides it.
  [[nodiscard]] virtual std::optional<double> output() const { return std::nullopt; }
};

}  // namespace apxa::net
