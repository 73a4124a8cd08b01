#include "adversary/byzantine.hpp"

#include <algorithm>

#include "core/codec.hpp"
#include "core/multidim.hpp"

namespace apxa::adversary {

ByzVectorProcess::ByzVectorProcess(ByzSpec spec, std::uint32_t dim,
                                   VectorWire wire)
    : spec_(spec),
      dim_(dim),
      wire_(wire),
      rng_(spec.seed),
      seen_lo_(dim, 0.0),
      seen_hi_(dim, 0.0) {}

void ByzVectorProcess::on_start(net::Context& ctx) { emit_round(ctx, 0); }

void ByzVectorProcess::on_message(net::Context& ctx, ProcessId from,
                                  BytesView payload) {
  // Learn rounds and per-coordinate extremes from whichever wire the
  // protocol uses: direct vector rounds, or any phase of vector RB (whose
  // instance tag IS the round, and whose echoes/readies relay honest values
  // just as well as sends do).
  Round round = 0;
  std::vector<double> vec;
  bool learn_value = false;
  if (const auto m = core::decode_vec_frame(payload)) {
    round = m->round;
    vec = m->values();
    learn_value = true;
  } else if (auto rb = core::decode_rb_vec(payload)) {
    round = rb->instance;
    vec = std::move(rb->value);
    // Learn values only from the origin's own authenticated SEND — exactly
    // the visibility the direct wire gives.  Echoes/readies relay forged
    // values (our own, and other attackers'); folding those into the
    // observed extremes would let spoofing attackers amplify themselves and
    // one another round over round.  Rounds are still learned from any
    // phase below.
    learn_value = rb->type == core::MsgType::kRbVecSend && rb->origin == from;
  } else {
    return;
  }
  if (vec.size() != dim_) return;
  if (!learn_value) {
    emit_round(ctx, round);
    emit_round(ctx, round + 1);
    return;
  }
  for (std::uint32_t c = 0; c < dim_; ++c) {
    if (!seen_any_) {
      seen_lo_[c] = seen_hi_[c] = vec[c];
    } else {
      seen_lo_[c] = std::min(seen_lo_[c], vec[c]);
      seen_hi_[c] = std::max(seen_hi_[c], vec[c]);
    }
  }
  seen_any_ = true;
  senders_seen_.insert(from);
  emit_round(ctx, round);
  emit_round(ctx, round + 1);
}

void ByzVectorProcess::emit_round(net::Context& ctx, Round r) {
  if (spec_.kind == ByzKind::kSilent) return;
  if (r >= spec_.max_instances) return;
  // Hull-escape wants its corner steered by the REAL honest extremes, so it
  // holds fire until it has observed vectors from a quorum of DISTINCT
  // senders (without consuming the round: a later learning event retries).
  // A corner forged from a one-or-two-party prefix would neither pull
  // laundered coordinates toward their true extremes nor look like the
  // coordinated-extreme attack it is specified to be.
  if (spec_.kind == ByzKind::kHullEscape &&
      senders_seen_.size() < ctx.params().quorum()) {
    return;
  }
  if (!emitted_.insert(r).second) return;

  const auto n = ctx.params().n;
  std::vector<double> v(dim_, 0.0);
  for (ProcessId to = 0; to < n; ++to) {
    if (to == ctx.self()) continue;
    const bool low_camp = to < n / 2;
    for (std::uint32_t c = 0; c < dim_; ++c) {
      switch (spec_.kind) {
        case ByzKind::kSilent:
          return;
        case ByzKind::kExtremeLow:
          v[c] = spec_.lo;
          break;
        case ByzKind::kExtremeHigh:
          v[c] = spec_.hi;
          break;
        case ByzKind::kEquivocate:
          v[c] = low_camp ? spec_.lo : spec_.hi;
          break;
        case ByzKind::kSpoiler: {
          const double lo = seen_any_ ? seen_lo_[c] : spec_.lo;
          const double hi = seen_any_ ? seen_hi_[c] : spec_.hi;
          const double width = std::max(1e-12, hi - lo);
          v[c] = low_camp ? lo - spec_.amplify * width
                          : hi + spec_.amplify * width;
          break;
        }
        case ByzKind::kNoise:
          v[c] = rng_.next_double(spec_.lo, spec_.hi);
          break;
        case ByzKind::kHullEscape: {
          // Coordinated corner: the same point for every receiver, each
          // coordinate a small margin inside the observed honest maximum —
          // survives per-coordinate trimming yet pulls every coordinate
          // toward its extreme simultaneously, i.e. toward a box corner
          // outside the honest convex hull.
          const double lo = seen_any_ ? seen_lo_[c] : spec_.lo;
          const double hi = seen_any_ ? seen_hi_[c] : spec_.hi;
          v[c] = hi - spec_.hull_margin * std::max(1e-12, hi - lo);
          break;
        }
      }
    }
    if (wire_ == VectorWire::kRbVec) {
      // Per-receiver RB SENDs: the same equivocation power on the wire, but
      // Bracha's echo quorums resolve at most one of these values (or none)
      // — the property the equalized collect layer exists to provide.
      ctx.send(to, core::encode_rb_vec(core::RbVecMsg{
                       core::MsgType::kRbVecSend, r, ctx.self(), v}));
    } else {
      ctx.send(to, core::encode_vec_round(r, v, spec_.inflate_budget));
    }
  }
}

}  // namespace apxa::adversary
