// DLPSW asynchronous byzantine approximate agreement (resilience t < n/5).
//
// The byzantine configuration of the round engine: the averaging rule is
// mean ∘ select_2t ∘ reduce_t.  Intuition for the constants: a view holds
// n - t values of which up to t are byzantine — reduce_t launders them — and
// two correct views can differ in up to 2t entries (t omitted genuine values
// per side), which the stride-2t subsampling re-aligns: the means of the
// selections then differ by at most spread/c with c = the number of selected
// elements, and c >= 2 requires n > 5t — the resilience bound this protocol
// is famous for, and the gap (t < n/3 is optimal) that the follow-on witness
// technique closed at cubic message cost (ProtocolKind::kWitness, run on the
// equalized collect of core/collect.hpp).
//
// This header only provides configuration factories; the process class is
// the shared RoundAaProcess.
#pragma once

#include "core/async_crash.hpp"
#include "core/bounds.hpp"

namespace apxa::core {

/// Fixed-round DLPSW-async configuration.  `rounds` is typically
/// rounds_for_bound(M, eps, ...) below.
RoundAaConfig dlpsw_async_config(SystemParams params, double input, Round rounds,
                                 TraceFn trace = nullptr);

/// Adaptive-termination DLPSW-async configuration (spread estimate laundered
/// through reduce_t; budgets capped).  Heuristic — see async_crash.hpp notes.
RoundAaConfig dlpsw_async_adaptive_config(SystemParams params, double input,
                                          double epsilon, TraceFn trace = nullptr);

/// Crash-model (Fekete) fixed-round configuration with the mean rule.
RoundAaConfig crash_aa_config(SystemParams params, double input, Round rounds,
                              Averager averager = Averager::kMean,
                              TraceFn trace = nullptr);

/// Adaptive crash-model configuration.
RoundAaConfig crash_aa_adaptive_config(SystemParams params, double input,
                                       double epsilon, TraceFn trace = nullptr);

/// Round budget that guarantees eps-agreement when all correct inputs have
/// magnitude at most M (so the initial spread is at most 2M), for the given
/// averager's guaranteed factor.
Round rounds_for_bound(double M, double epsilon, Averager averager,
                       SystemParams params);

}  // namespace apxa::core
