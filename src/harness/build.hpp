// Scenario staging: turn a RunConfig into scheduler + processes + fault
// plan, and install them on an execution backend.
//
// Split out of the execution entry points so tests and custom drivers can
// stage a scenario on a hand-constructed backend (e.g. a SimBackend with
// duplication enabled through its escape hatch) and still share the exact
// process/fault construction the stock harness uses.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "core/multidim.hpp"
#include "exec/backend.hpp"
#include "harness/scenario.hpp"
#include "sched/scheduler.hpp"

namespace apxa::harness {

/// Check the config's structural invariants (input size, fault budget,
/// distinct byzantine ids, no byz+crash overlap).  Throws std::invalid_argument.
void validate(const RunConfig& cfg);

/// The byzantine party ids declared by the config.
std::set<ProcessId> byzantine_ids(const RunConfig& cfg);

/// The message scheduler the config asks for (simulator backends only).
std::unique_ptr<sched::Scheduler> make_scheduler(const RunConfig& cfg);

/// Build all n protocol/attacker processes in id order.  `trace` observes
/// honest parties' per-round values; under a threaded backend it is invoked
/// concurrently from several worker threads, so it must be thread-safe.
std::vector<std::unique_ptr<net::Process>> build_processes(const RunConfig& cfg,
                                                           const core::TraceFn& trace);

/// Register the built processes and install the fault plan (byzantine marks,
/// crash send budgets, multicast orders) on the backend.
void stage(const RunConfig& cfg, const core::TraceFn& trace, exec::Backend& backend);

/// The completion probe for the config's termination mode: "has output" for
/// outputting modes, "reached the round/iteration horizon" for kLive.
exec::DonePredicate make_done_predicate(const RunConfig& cfg);

// --- vector scenarios (VectorRunConfig) -------------------------------------
// Overloads of the staging pipeline for vector-valued runs; identical
// contract, with the trace observing per-round vectors.  Vector protocols
// decide through the process interface's vector side, so the default "has
// output" completion probe covers them and no done-predicate variant exists.

void validate(const VectorRunConfig& cfg);
std::set<ProcessId> byzantine_ids(const VectorRunConfig& cfg);
std::unique_ptr<sched::Scheduler> make_scheduler(const VectorRunConfig& cfg);
/// `view_trace` additionally observes honest parties' frozen views
/// (core::ViewTraceFn) — the harness measures view overlap from it.  Same
/// thread-safety contract as `trace`.
std::vector<std::unique_ptr<net::Process>> build_processes(
    const VectorRunConfig& cfg, const core::VecTraceFn& trace,
    const core::ViewTraceFn& view_trace = {});
void stage(const VectorRunConfig& cfg, const core::VecTraceFn& trace,
           exec::Backend& backend, const core::ViewTraceFn& view_trace = {});

}  // namespace apxa::harness
