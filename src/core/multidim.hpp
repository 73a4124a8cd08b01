// Multidimensional approximate agreement in R^d: one round process, two
// averaging rules, two collect engines.
//
// The 1987 round protocol carries over to R^d unchanged: each round a party
// publishes its current vector, freezes a view of n - t round-tagged points
// (at most one per sender), averages, and advances.  One message per round
// carries all d coordinates, so only the bit complexity scales with d.
// VectorAaProcess is that loop; how the view is assembled is the collect
// engine (core/collect.hpp), and what it averages to is the rule:
//
//  - per-coordinate (VectorAaConfig::averager set): column c of the view is
//    a 1-D multiset and the 1-D Averager runs on every column
//    (geom::average_per_coordinate).  Crash faults: each coordinate is
//    exactly a 1-D instance, so outputs stay in the bounding box of the
//    inputs and every coordinate shrinks by the 1-D factor ((n - t)/t for
//    the mean rule).  Byzantine (the DLPSW rule, ProtocolKind::kVectorByz):
//    per-coordinate laundering gives BOX validity only — outputs can leave
//    the *convex* hull of the honest inputs.  Requires n > 2t.
//  - safe-area midpoint (averager = nullopt): the Mendes-Herlihy /
//    Vaidya-Garg construction (geom/safe_area.hpp).  A certified safe-area
//    point lies in the hull of the honest entries of the view no matter
//    which <= t are byzantine, which is the inductive step of CONVEX
//    validity.  The party trusts its own entry and any echo of it
//    (geom::TrustedMask), so the certified core of the trimmed-centroid
//    fallback is never empty.  Requires n > 3t.
//
// The collect engine decides how much the honest views share:
//  - CollectMode::kQuorum (kVectorCrash, kVectorByz, kVectorConvex): direct
//    multicast of encode_vec_round, first n - t arrivals freeze.
//    Theta(n^2) messages per round, but a byzantine party may show
//    different values to different honest parties, so for the safe-area
//    rule the textbook round bounds do NOT apply — contraction is scheduler-
//    and adversary-dependent.
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
// Scope of the convex guarantee: the safe area of an m-point view is
// guaranteed nonempty only when m >= (d+2)t + 1; past that (large d, small
// n) the rule degrades to the outlier-trimmed centroid fallback, and the
// harness measures the resulting convex validity instead of assuming it
// (VectorRunReport::convex_validity_ok, bench/f6_multidim).
//
// The process runs on any exec::Backend through the harness layer: build a
// harness::VectorRunConfig and call harness::run.
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
  Round fixed_rounds = 1;
  CollectMode collect = CollectMode::kQuorum;
  VecTraceFn trace;        ///< optional round-entry hook
  ViewTraceFn view_trace;  ///< optional frozen-view hook
  /// Optional obs sink handed to the collect engine: records a kViewFreeze
  /// event per frozen round view.  Must outlive the process.
  obs::TraceSink* trace_sink = nullptr;
};

/// Round-based AA process for R^d (fixed-round termination).  Decides
/// through vector_output()/has_output() on every backend.
class VectorAaProcess final : public net::Process {
 public:
  explicit VectorAaProcess(VectorAaConfig cfg);
  // The collect engine's view callback holds `this`.
  VectorAaProcess(const VectorAaProcess&) = delete;
  VectorAaProcess& operator=(const VectorAaProcess&) = delete;

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override;

  [[nodiscard]] bool has_output() const override { return done_; }
  [[nodiscard]] std::optional<std::vector<double>> vector_output() const override {
    return done_ ? std::optional<std::vector<double>>(value_) : std::nullopt;
  }
  [[nodiscard]] Round current_round() const { return round_; }

 private:
  void begin_round(net::Context& ctx);
  void on_view(net::Context& ctx, Round r, const std::vector<CollectEntry>& view);
  [[nodiscard]] std::vector<double> average(
      const std::vector<CollectEntry>& view) const;

  VectorAaConfig cfg_;
  std::unique_ptr<Collector> collector_;
  std::vector<double> value_;
  Round round_ = 0;
  bool done_ = false;
  ProcessId self_ = kNoProcess;
};

}  // namespace apxa::core
