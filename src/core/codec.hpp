// Wire format for every protocol message in the library.
//
// All protocols share a single tagged encoding so that schedulers, probes and
// metrics can reason about traffic uniformly:
//
//   ROUND   : scalar value exchange        [tag][round varint][value f64][budget varint]
//   DONE    : frozen-value announcement    [tag][round varint][value f64]
//   RB_*    : scalar Bracha RB             [tag][instance varint][origin varint][value f64]
//   REPORT  : witness report (the          [tag][iter varint][bitset of delivered origins]
//             equalized collect layer)
//   VEC     : round exchange (the quorum   [tag][round varint][dim varint][f64 x dim][budget varint, only if != 0]
//             collect layer)
//   RBVEC_* : Bracha RB, vector payload    [tag][instance varint][origin varint][dim varint][f64 x dim]
//             (rb::BrachaHub, the transport of the equalized collect layer)
//
// ROUND and the scalar RB tags 3-5 are codec-only: no protocol sends them
// (every round protocol speaks VEC or RBVEC, scalars as 1-points).  The
// codec stays because the repository benchmark (perfbench/) times it; the
// collect engines ignore these frames.
//
// The trailing `budget` varint of VEC carries the sender's round budget in
// the adaptive-termination mode (core/multidim.hpp) — budgets piggyback on
// value traffic instead of costing extra messages.  It is omitted when 0, so
// a 1-point VEC frame without a budget is exactly as long as a ROUND frame
// with budget 0, and a decoder rejects an explicit 0 (one encoding per frame).
//
// Every format starts [tag][round-or-instance varint], which is what lets
// net::Metrics attribute per-phase and per-round message counts without
// knowing the protocols (see net/metrics.hpp).
//
// All decoders are TOTAL: any byte sequence — including truncated or
// overlong frames forged by byzantine peers — decodes to a message or
// nullopt, never an exception.  They run on raw network input inside honest
// parties' message loops, where throwing would turn one malformed message
// into a crash of every correct process.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "sched/scheduler.hpp"

namespace apxa::core {

enum class MsgType : std::uint8_t {
  kRound = 1,
  kDone = 2,
  kRbSend = 3,
  kRbEcho = 4,
  kRbReady = 5,
  kReport = 6,
  kVecRound = 7,
  kRbVecSend = 8,
  kRbVecEcho = 9,
  kRbVecReady = 10,
};

struct RoundMsg {
  Round round = 0;
  double value = 0.0;
  std::uint32_t budget = 0;  ///< adaptive round budget; 0 = not in use
};

struct DoneMsg {
  Round round = 0;
  double value = 0.0;
};

struct RbMsg {
  MsgType type = MsgType::kRbSend;  ///< kRbSend / kRbEcho / kRbReady
  std::uint32_t instance = 0;       ///< protocol-level instance tag (e.g. iteration)
  ProcessId origin = kNoProcess;    ///< original broadcaster
  double value = 0.0;
};

struct ReportMsg {
  std::uint32_t iter = 0;
  std::vector<bool> have;  ///< have[j] == RB-delivered origin j's value this iter
};

/// Bracha RB message carrying a full R^d point — the wire format of
/// rb::BrachaHub and hence of the equalized collect layer
/// (core/collect.hpp).  Mirrors RbMsg with a vector payload.
struct RbVecMsg {
  MsgType type = MsgType::kRbVecSend;  ///< kRbVecSend / kRbVecEcho / kRbVecReady
  std::uint32_t instance = 0;          ///< protocol-level instance tag (round)
  ProcessId origin = kNoProcess;       ///< original broadcaster
  std::vector<double> value;
};

/// Peek at the type tag without decoding; nullopt on empty payload.
std::optional<MsgType> peek_type(BytesView payload);

Bytes encode_round(const RoundMsg& m);
std::optional<RoundMsg> decode_round(BytesView payload);

Bytes encode_done(const DoneMsg& m);
std::optional<DoneMsg> decode_done(BytesView payload);

Bytes encode_rb(const RbMsg& m);
std::optional<RbMsg> decode_rb(BytesView payload);

Bytes encode_report(const ReportMsg& m);
std::optional<ReportMsg> decode_report(BytesView payload);

Bytes encode_rb_vec(const RbVecMsg& m);
std::optional<RbVecMsg> decode_rb_vec(BytesView payload);

/// VEC frame: (round, point, budget).  Rejects dim 0 and dim > 2^16.
Bytes encode_vec_round(Round r, const std::vector<double>& v,
                       std::uint32_t budget = 0);

/// A decoded VEC frame whose point still sits in the payload: decoding it
/// allocates nothing, so the quorum engine can drop a frame before paying
/// for its point.  `point` views the payload and lives as long as it does.
struct VecFrame {
  Round round = 0;
  std::uint32_t budget = 0;  ///< adaptive round budget; 0 = not in use
  BytesView point;           ///< dim() little-endian f64s

  [[nodiscard]] std::uint32_t dim() const {
    return static_cast<std::uint32_t>(point.size() / 8);
  }
  [[nodiscard]] double coord(std::uint32_t c) const;
  [[nodiscard]] std::vector<double> values() const;
};

std::optional<VecFrame> decode_vec_frame(BytesView payload);

/// (round, point) of a VEC frame; the budget is dropped.
std::optional<std::pair<Round, std::vector<double>>> decode_vec_round(
    BytesView payload);

/// Scheduler probe that exposes (round, first coordinate) of every frame
/// that carries a protocol value — ROUND, VEC and the three RBVEC phases
/// (instance == round) — to value-aware adversaries.  Every other frame
/// probes to nullopt.
sched::ProbeFn value_probe();

}  // namespace apxa::core
