// Round-based asynchronous approximate agreement (the 1987 protocol family).
//
// One process class covers the crash-fault protocol (Fekete) and, with a
// byzantine-safe averager, the DLPSW asynchronous byzantine protocol — the
// round structure is identical; only the averaging rule and the resilience
// requirement differ (see async_byz.hpp for the byzantine configuration).
//
// Protocol (party i, input v_i):
//   value := v_i; round := 0
//   loop:
//     multicast ⟨ROUND, round, value⟩ and add own value to the round's view
//     wait until the view holds n - t round-`round` values (own included)
//     value := f(view);  round := round + 1
//     if round budget reached: output value  (and, in adaptive mode,
//       multicast ⟨DONE, round, value⟩ so laggards can keep making quorums)
//
// Termination modes:
//   kFixedRounds — run exactly R averaging iterations.  R is computed by the
//     caller from a public bound on input magnitude (R = ceil(log_K(2M/eps)))
//     — the standard assumption in the literature.  Safe and live.
//   kAdaptive — budget derived from the round-0 view's spread with a slack
//     factor, piggybacked on every ROUND message, max-adopted from every
//     sender, and raised whenever the running value-range estimate widens.
//     Parties that finish announce DONE; receivers treat the frozen value as
//     that sender's value for every later round (liveness).  This mode is a
//     *reconstructed heuristic*: fully adversarial schedulers can defeat any
//     local-estimate termination rule (see bench/t7 and DESIGN.md §6 — this
//     gap is precisely what the follow-on witness technique closes), so the
//     harness measures its violation rate instead of assuming safety.
//   kLive — never outputs; runs forever.  Used by the convergence-rate
//     experiments, which watch the per-round spread from outside.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "core/multiset_ops.hpp"
#include "core/round_engine.hpp"
#include "net/process.hpp"

namespace apxa::core {

enum class TerminationMode : std::uint8_t { kFixedRounds, kAdaptive, kLive };

/// Observation hook: (party, round, value at round entry).  Round entry 0
/// reports the input; entry r reports the value after r averaging steps.
using TraceFn = std::function<void(ProcessId, Round, double)>;

struct RoundAaConfig {
  SystemParams params;
  double input = 0.0;
  Averager averager = Averager::kMean;
  TerminationMode mode = TerminationMode::kFixedRounds;
  Round fixed_rounds = 0;       ///< iterations for kFixedRounds
  double epsilon = 1e-3;        ///< target agreement (adaptive budgeting)
  double adaptive_slack = 4.0;  ///< C in budget = ceil(log_K(C * spread / eps))
  Round budget_cap = 64;        ///< upper bound on adopted budgets (byz hygiene)
  bool byzantine_safe_estimate = false;  ///< reduce_t before estimating spread
  TraceFn trace;                ///< optional observation hook
};

class RoundAaProcess final : public net::Process {
 public:
  explicit RoundAaProcess(RoundAaConfig cfg);

  void on_start(net::Context& ctx) override;
  void on_message(net::Context& ctx, ProcessId from, BytesView payload) override;
  [[nodiscard]] bool has_output() const override { return output_.has_value(); }
  /// The decision as a 1-point.
  [[nodiscard]] std::optional<std::vector<double>> vector_output() const override {
    if (!output_) return std::nullopt;
    return std::vector<double>{*output_};
  }

  [[nodiscard]] double current_value() const { return value_; }
  [[nodiscard]] Round current_round() const { return round_; }
  [[nodiscard]] Round current_budget() const { return budget_; }

 private:
  struct DoneInfo {
    Round from_round = 0;
    double value = 0.0;
  };

  void begin_round(net::Context& ctx);
  void try_advance(net::Context& ctx);
  void finish(net::Context& ctx);
  void adopt_budget(Round b);
  void widen_range(double v);
  void inject_done_values(Round r);
  [[nodiscard]] bool budget_reached() const;

  RoundAaConfig cfg_;
  RoundCollector collector_;
  double value_ = 0.0;
  Round round_ = 0;
  Round budget_ = 0;
  bool budget_known_ = false;  // adaptive: set after round-0 view
  std::optional<double> output_;
  bool finished_ = false;
  ProcessId self_ = kNoProcess;

  // Adaptive state: running range estimate and frozen senders.
  double range_lo_ = 0.0, range_hi_ = 0.0;
  bool range_init_ = false;
  std::map<ProcessId, DoneInfo> done_;
};

}  // namespace apxa::core
