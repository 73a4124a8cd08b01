// Backend-polymorphic execution harness.
//
// Builds a full system (protocol processes + fault plans + scheduler) from a
// RunConfig, runs it on an execution backend — the deterministic simulator
// or the threaded runtime, chosen by RunConfig::backend — and checks the two
// approximate-agreement properties (validity, eps-agreement) plus the
// per-round spread trace and communication metrics.  The verdict logic is
// identical on every backend; only message interleavings differ.
//
// Entry points:
//   run(cfg)            — dispatch on cfg.backend;
//   execute(cfg, be)    — stage and run on a caller-constructed backend.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/collect.hpp"
#include "exec/backend.hpp"
#include "harness/scenario.hpp"

namespace apxa::harness {

/// Round-entry value traces collected during a run (party -> value at each
/// round).  Shared by execute() and harness::Session.
using ScalarTrace = std::map<Round, std::map<ProcessId, double>>;
using VectorTrace = std::map<Round, std::map<ProcessId, std::vector<double>>>;
using ViewTrace =
    std::map<Round, std::map<ProcessId, std::vector<core::CollectEntry>>>;

/// Construct the backend the config asks for (simulator backends get the
/// config's scheduler; the threaded runtime ignores sched/seed).
std::unique_ptr<exec::Backend> make_backend(const RunConfig& cfg);

/// Stage the scenario on `backend` (which must be freshly constructed with
/// matching params) and run it to a verdict.
RunReport execute(const RunConfig& cfg, exec::Backend& backend);

/// Run one complete execution on the backend selected by cfg.backend.
RunReport run(const RunConfig& cfg);

// --- vector scenarios -------------------------------------------------------
// The same entry points for vector-valued (R^d) runs: box-validity,
// convex-hull-validity (LP point-in-hull test, geom/safe_area.hpp) and
// L-infinity eps-agreement verdicts, per-round L-infinity spread traces,
// identical on every backend.

std::unique_ptr<exec::Backend> make_backend(const VectorRunConfig& cfg);
VectorRunReport execute(const VectorRunConfig& cfg, exec::Backend& backend);
VectorRunReport run(const VectorRunConfig& cfg);

// --- verdict finalization ---------------------------------------------------
// Turn an ExecResult plus the collected traces into the backend-independent
// report (validity hull, eps-agreement, spread trace, phase attribution).
// execute() is stage + run + finalize; harness::Session reuses finalize on
// per-instance synthetic ExecResults so multiplexed verdicts are computed by
// the exact same code as single-instance ones.

RunReport finalize(const RunConfig& cfg, const exec::ExecResult& res,
                   const ScalarTrace& trace);
VectorRunReport finalize(const VectorRunConfig& cfg, const exec::ExecResult& res,
                         const VectorTrace& trace, const ViewTrace& views);

}  // namespace apxa::harness
