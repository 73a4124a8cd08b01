// Byzantine attacker process for the round-based protocols (scalar
// protocols are d = 1).
//
// Byzantine parties are ordinary net::Process implementations: the
// per-receiver send() interface already grants full equivocation power.  The
// strategies here target the averaging rules:
//
//   kSilent      — never sends (tests liveness under omission).
//   kExtremeLow  — floods a constant extreme below the honest range.
//   kExtremeHigh — floods a constant extreme above the honest range.
//   kEquivocate  — sends the low extreme to the LOW camp (ids < n/2) and the
//                  high extreme to the HIGH camp: maximally inconsistent.
//   kSpoiler     — adaptive: tracks the honest values observed so far and
//                  sends values just beyond the observed extremes, scaled by
//                  an amplification factor; defeats naive averaging, should
//                  be laundered by reduce-based rules.
//   kNoise       — uniform random value per receiver within an interval.
//   kHullEscape  — coordinated per-coordinate extremes: every receiver gets
//                  the SAME point sitting a small margin inside the observed
//                  per-coordinate maxima (the top corner of the honest box).
//                  Staying just inside the honest range survives reduce-based
//                  per-coordinate laundering, so kVectorByz outputs drift
//                  toward the box corner — which for d >= 2 lies OUTSIDE the
//                  convex hull of the honest inputs: box validity holds,
//                  convex validity breaks.  Against kVectorConvex the corner
//                  is far from the honest cluster and the safe-area /
//                  trimmed averaging discards it.  In one dimension the box
//                  IS the hull, so the scalar variant is a (harmless)
//                  adaptive high-push — a negative control.
//
// Attackers emit one batch of round-r messages the first time they learn
// round r exists (own start covers round 0); they also inflate the adaptive
// budget field when configured to, probing budget-cap hygiene.
#pragma once

#include <cstdint>
#include <set>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/process.hpp"

namespace apxa::adversary {

enum class ByzKind : std::uint8_t {
  kSilent,
  kExtremeLow,
  kExtremeHigh,
  kEquivocate,
  kSpoiler,
  kNoise,
  kHullEscape,
};

struct ByzSpec {
  ProcessId who = kNoProcess;
  ByzKind kind = ByzKind::kSilent;
  double lo = -1.0e3;   ///< low extreme / noise interval start
  double hi = 1.0e3;    ///< high extreme / noise interval end
  double amplify = 2.0; ///< spoiler: how far past observed extremes to shoot
  /// Hull-escape: fraction of the observed per-coordinate width to stay
  /// INSIDE the honest maxima (so reduce-based trimming does not discard the
  /// forged corner outright).
  double hull_margin = 0.05;
  std::uint32_t inflate_budget = 0;  ///< nonzero: claim this round budget (VEC)
  std::uint64_t seed = 1;            ///< noise determinism
  /// Attack at most this many rounds/iterations.  Bounds the traffic a lone
  /// attacker can generate: without a cap an RB attacker that learns rounds
  /// from echo traffic feeds on the echoes its own forgeries provoke and
  /// escalates forever.
  std::uint32_t max_instances = 128;
};

/// Which wire format a vector attacker speaks — i.e. which collect layer it
/// attacks (core/collect.hpp).
enum class VectorWire : std::uint8_t {
  /// Direct per-receiver vector rounds (core::encode_vec_round): the traffic
  /// of quorum collect (kVectorCrash/kVectorByz/kVectorConvex).  Per-receiver
  /// sends grant full equivocation power — each honest view can hold a
  /// DIFFERENT forged point.
  kDirect,
  /// Vector RB SENDs (core::encode_rb_vec): the traffic of the equalized
  /// collect (kVectorConvexRB, and kWitness at dim 1).  The attacker
  /// equivocates its SENDs per-receiver exactly as in kDirect — but Bracha
  /// either resolves ONE of the values consistently everywhere or delivers
  /// none at all, so the equivocation that splits quorum-collected views is
  /// structurally neutralized.  The attacker stays silent in other parties' RB instances
  /// (it contributes no echoes/readies).
  kRbVec,
};

/// Attacker for the vector (R^d) round protocols: the same strategies applied
/// per coordinate over the configured wire format.  kEquivocate/kSpoiler send
/// the low corner to the LOW camp and the high corner to the HIGH camp (the
/// spoiler shoots past the per-coordinate observed extremes); kNoise draws
/// every coordinate independently.  Coordinate-wise laundering (reduce_t per
/// column) confines these to BOX validity only — see core/multidim.hpp.
class ByzVectorProcess final : public net::Process {
 public:
  ByzVectorProcess(ByzSpec spec, std::uint32_t dim,
                   VectorWire wire = VectorWire::kDirect);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override;

 private:
  void emit_round(net::Context& ctx, Round r);

  ByzSpec spec_;
  std::uint32_t dim_;
  VectorWire wire_;
  Rng rng_;
  std::set<Round> emitted_;
  std::vector<double> seen_lo_, seen_hi_;  // per-coordinate observed extremes
  bool seen_any_ = false;
  std::set<ProcessId> senders_seen_;  ///< distinct senders; gates hull-escape
};

}  // namespace apxa::adversary
