// Round-based approximate agreement in R^d: one round process, two
// averaging rules, two collect engines, three termination modes.  Scalar
// protocols are d = 1.
//
// The 1987 round protocol carries over to R^d unchanged: each round a party
// publishes its current vector, freezes a view of n - t round-tagged points
// (at most one per sender), averages, and advances.  One message per round
// carries all d coordinates, so only the bit complexity scales with d.
// VectorAaProcess is that loop; how the view is assembled is the collect
// engine (core/collect.hpp), and what it averages to is the rule:
//
//  - per-coordinate (VectorAaConfig::averager set): column c of the view is
//    a 1-D multiset and the 1-D Averager runs on every column.  At d = 1
//    this is Fekete's crash protocol (the mean rule, ProtocolKind::
//    kCrashRound) and the DLPSW asynchronous byzantine protocol
//    (mean ∘ select_2t ∘ reduce_t, kByzRound, n > 5t).  Crash faults: each
//    coordinate is exactly a 1-D instance, so outputs stay in the bounding
//    box of the inputs and every coordinate shrinks by the 1-D factor
//    ((n - t)/t for the mean rule).  Byzantine (the DLPSW rule,
//    ProtocolKind::kVectorByz): per-coordinate laundering gives BOX
//    validity only — outputs can leave the *convex* hull of the honest
//    inputs.  Requires n > 2t.
//  - safe-area midpoint (averager = nullopt): the Mendes-Herlihy /
//    Vaidya-Garg construction (geom/safe_area.hpp).  A certified safe-area
//    point lies in the hull of the honest entries of the view no matter
//    which <= t are byzantine, which is the inductive step of CONVEX
//    validity.  The party trusts its own entry and any echo of it
//    (geom::TrustedMask), so the certified core of the trimmed-centroid
//    fallback is never empty.  Requires n > 3t.
//
// The collect engine decides how much the honest views share:
//  - CollectMode::kQuorum (kCrashRound, kByzRound, kVectorCrash, kVectorByz,
//    kVectorConvex): direct multicast of encode_vec_round, first n - t
//    arrivals freeze.  Theta(n^2) messages per round, but a byzantine party
//    may show different values to different honest parties, so for the
//    safe-area rule the textbook round bounds do NOT apply — contraction is
//    scheduler- and adversary-dependent.
//  - CollectMode::kEqualized (kVectorConvexRB, kWitness): Bracha reliable
//    broadcast plus witness-gated freezing, so any two honest round-r views
//    overlap in >= n - t common entries and equivocation is structurally
//    neutralized.  Theta(n^3) messages per round.
//
// The AAD'04 witness protocol (Abraham-Amit-Dolev, OPODIS'04;
// ProtocolKind::kWitness) is this process at d = 1 with the kReduceMidpoint
// rule on the equalized engine.  Two honest views share >= n - t entries,
// so each holds at most t entries the other lacks; reduce_t launders the
// byzantine ones and the midpoint halves the honest spread every round:
// K = 2 at optimal resilience n > 3t, independent of n/t.
//
// Termination modes (TerminationMode):
//  - kFixedRounds: run exactly fixed_rounds averaging rounds, then decide.
//    The caller derives the budget from a public bound on input magnitude
//    (rounds_for_bound in core/bounds.hpp) — the standard assumption in the
//    literature.  Safe and live.
//  - kAdaptive (d = 1, quorum engine, per-coordinate rule): the budget is
//    derived from the round-0 view's spread with a slack factor (laundered
//    through reduce_t for the byzantine-safe rules), piggybacked on every
//    VEC frame, max-adopted from every sender (capped at
//    kAdaptiveBudgetCap), and raised whenever the running value-range
//    estimate widens.  A party that decides multicasts DONE; receivers
//    treat its frozen value as its entry for every later round (the quorum
//    engine's hook, core/collect.hpp), so laggards keep making quorums.
//    This mode is a *reconstructed heuristic*: fully adversarial schedulers
//    can defeat any local-estimate termination rule (bench/t7 measures the
//    violation rate — the gap the witness technique closes).
//  - kLive: never decides; fixed_rounds is an observation horizon at which
//    the process stops.  Used by the convergence-rate experiments, which
//    watch the per-round spread from outside.
//
// Scope of the convex guarantee: the safe area of an m-point view is
// guaranteed nonempty only when m >= (d+2)t + 1; past that (large d, small
// n) the rule degrades to the outlier-trimmed centroid fallback, and the
// harness measures the resulting convex validity instead of assuming it
// (VectorRunReport::convex_validity_ok, bench/f6_multidim).
//
// The process runs on any exec::Backend through the harness layer: build a
// harness::RunConfig (d = 1) or harness::VectorRunConfig and call
// harness::run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "core/codec.hpp"  // encode_vec_round / decode_vec_round (VEC frames)
#include "core/collect.hpp"
#include "core/multiset_ops.hpp"
#include "net/process.hpp"

namespace apxa::core {

enum class TerminationMode : std::uint8_t { kFixedRounds, kAdaptive, kLive };

/// Adopted adaptive budgets never exceed this many rounds (a byzantine
/// sender may claim any budget).
inline constexpr Round kAdaptiveBudgetCap = 64;

/// Scalar observation hook: (party, round, value at round entry).  Round
/// entry 0 reports the input; entry r the value after r averaging steps.
using TraceFn = std::function<void(ProcessId, Round, double)>;

/// Observation hook for vector rounds: (party, round, vector at round entry).
/// Round entry 0 reports the input; entry r the value after r averaging
/// steps.  Under a threaded backend it is invoked concurrently from several
/// worker threads, so it must be thread-safe.
using VecTraceFn =
    std::function<void(ProcessId, Round, const std::vector<double>&)>;

/// Observation hook for frozen views: (party, round, frozen view entries).
/// The entry reference is valid only for the duration of the call.  Same
/// thread-safety contract as VecTraceFn.  This is how the harness measures
/// view overlap between honest parties (VectorRunReport::view_overlap_min).
using ViewTraceFn =
    std::function<void(ProcessId, Round, const std::vector<CollectEntry>&)>;

struct VectorAaConfig {
  SystemParams params;
  std::vector<double> input;  ///< the dimension d is input.size()
  /// The averaging rule: a 1-D Averager applied per coordinate, or nullopt
  /// for the safe-area midpoint.
  std::optional<Averager> averager = Averager::kMean;
  TerminationMode mode = TerminationMode::kFixedRounds;
  Round fixed_rounds = 1;       ///< kFixedRounds budget / kLive horizon
  double epsilon = 1e-3;        ///< kAdaptive agreement target
  double adaptive_slack = 4.0;  ///< C in budget = ceil(log_K(C * spread / eps))
  CollectMode collect = CollectMode::kQuorum;
  VecTraceFn trace;        ///< optional round-entry hook
  ViewTraceFn view_trace;  ///< optional frozen-view hook
  /// Optional obs sink handed to the collect engine: records a kViewFreeze
  /// event per frozen round view.  Must outlive the process.
  obs::TraceSink* trace_sink = nullptr;
};

/// Round-based AA process for R^d.  Decides through vector_output()/
/// has_output() on every backend (never in kLive mode).
class VectorAaProcess final : public net::Process {
 public:
  explicit VectorAaProcess(VectorAaConfig cfg);
  // The collect engine's callbacks hold `this`.
  VectorAaProcess(const VectorAaProcess&) = delete;
  VectorAaProcess& operator=(const VectorAaProcess&) = delete;

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override;

  [[nodiscard]] bool has_output() const override {
    return stopped_ && cfg_.mode != TerminationMode::kLive;
  }
  [[nodiscard]] std::optional<std::vector<double>> vector_output() const override {
    return has_output() ? std::optional<std::vector<double>>(value_) : std::nullopt;
  }
  [[nodiscard]] Round current_round() const { return round_; }

 private:
  void begin_round(net::Context& ctx);
  void on_view(net::Context& ctx, Round r, const std::vector<CollectEntry>& view);
  [[nodiscard]] std::vector<double> average(
      const std::vector<CollectEntry>& view) const;
  void stop(net::Context& ctx);
  [[nodiscard]] bool budget_reached() const;
  // Adaptive termination (d = 1).
  void observe(double v, std::optional<std::uint32_t> budget);
  void adopt_budget(Round b);
  /// Rounds the rule needs to shrink `width` (times the slack) below eps.
  [[nodiscard]] Round budget_for(double width) const;

  // The fields the delivery path reads come first.
  std::unique_ptr<Collector> collector_;
  Round round_ = 0;
  bool stopped_ = false;
  ProcessId self_ = kNoProcess;
  std::uint32_t dim_;
  /// Current value.  Moved into the collect engine for the round in
  /// progress (the frozen view holds it as the own entry); reassigned from
  /// the view's average.
  std::vector<double> value_;
  VectorAaConfig cfg_;

  Round budget_ = 0;
  bool budget_known_ = false;  ///< set by the round-0 view
  double range_lo_ = 0.0, range_hi_ = 0.0;  ///< every value seen so far
};

}  // namespace apxa::core
