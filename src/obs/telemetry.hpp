// obs — executor telemetry counters.
//
// ExecStats is the aggregate side of tracing: cheap per-worker counters the
// transports keep unconditionally (they are bumped on paths that already
// take a cache miss) and flatten into ExecResult after a run.  The thread
// backend fills the claim/steal side.  The simulator is serial and leaves
// every field 0; steps/fanned_steps are kept only because perfbench/ reads
// them.  The struct lives in obs, below the transports, so runtime, netio,
// exec and harness can all carry it without a layering cycle.
#pragma once

#include <cstdint>

namespace apxa::obs {

struct ExecStats {
  std::uint32_t workers = 0;       // worker threads
  std::uint64_t claims = 0;        // parties popped off the worker's own shard
  std::uint64_t steals = 0;        // parties taken from another shard
  std::uint64_t parties_run = 0;   // run_party batches executed
  std::uint64_t idle_spins = 0;    // empty scans that ended in a timed wait
  std::uint64_t steps = 0;         // always 0; read by perfbench/
  std::uint64_t fanned_steps = 0;  // always 0; read by perfbench/

  void merge(const ExecStats& o) {
    workers = workers > o.workers ? workers : o.workers;
    claims += o.claims;
    steals += o.steals;
    parties_run += o.parties_run;
    idle_spins += o.idle_spins;
    steps += o.steps;
    fanned_steps += o.fanned_steps;
  }
};

}  // namespace apxa::obs
