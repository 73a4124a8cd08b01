#include "harness/build.hpp"

#include <algorithm>
#include <utility>

#include "common/ensure.hpp"
#include "core/bounds.hpp"
#include "core/codec.hpp"
#include "core/multidim.hpp"
#include "net/envelope.hpp"
#include "sched/clique_scheduler.hpp"
#include "sched/crash_timing_scheduler.hpp"
#include "sched/fifo_scheduler.hpp"
#include "sched/greedy_split_scheduler.hpp"
#include "sched/random_scheduler.hpp"

namespace apxa::harness {

namespace {

// The fault-plan half of validate and byzantine_ids, shared by the scalar
// and vector config overloads.
std::set<ProcessId> byz_ids(const std::vector<adversary::ByzSpec>& byz) {
  std::set<ProcessId> ids;
  for (const auto& b : byz) ids.insert(b.who);
  return ids;
}

void validate_faults(SystemParams params,
                     const std::vector<adversary::CrashSpec>& crashes,
                     const std::vector<adversary::ByzSpec>& byz,
                     bool allow_excess_faults) {
  APXA_ENSURE(allow_excess_faults || crashes.size() + byz.size() <= params.t,
              "cannot exceed the fault budget t");
  std::set<ProcessId> ids;
  for (const auto& b : byz) {
    APXA_ENSURE(b.who < params.n, "byzantine id out of range");
    APXA_ENSURE(ids.insert(b.who).second, "duplicate byzantine id");
  }
  for (const auto& c : crashes) {
    APXA_ENSURE(!ids.contains(c.who), "party cannot be both byz and crashed");
  }
}

}  // namespace

void validate(const RunConfig& cfg) {
  APXA_ENSURE(cfg.protocol != ProtocolKind::kVectorCrash &&
                  cfg.protocol != ProtocolKind::kVectorByz &&
                  cfg.protocol != ProtocolKind::kVectorConvex &&
                  cfg.protocol != ProtocolKind::kVectorConvexRB,
              "vector protocols take a VectorRunConfig");
  APXA_ENSURE(cfg.inputs.size() == cfg.params.n, "inputs must have size n");
  // The DLPSW rule contracts only past its resilience bound.
  APXA_ENSURE(cfg.protocol != ProtocolKind::kByzRound ||
                  core::resilience_byz_async(cfg.params.n, cfg.params.t),
              "kByzRound (DLPSW async) requires n > 5t");
  validate_faults(cfg.params, cfg.crashes, cfg.byz, cfg.allow_excess_faults);
}

std::set<ProcessId> byzantine_ids(const RunConfig& cfg) {
  return byz_ids(cfg.byz);
}

namespace {

// Value-aware schedulers must stay value-aware against multiplexed sessions:
// their probe sees whole packets, so unwrap a single instance envelope
// before probing.  Batch packets stay opaque (the inner decoders reject the
// batch tag and the scheduler falls back to its value-blind delay) — one
// packet carries many instances' values, so no single probe is meaningful.
sched::ProbeFn envelope_aware(sched::ProbeFn inner) {
  return [inner = std::move(inner)](
             BytesView payload) -> std::optional<sched::ValueProbe> {
    if (net::is_envelope(payload)) {
      if (const auto env = net::decode_envelope(payload)) {
        return inner(env->payload);
      }
      return std::nullopt;
    }
    return inner(payload);
  };
}

// Shared by the scalar and vector config overloads: one value probe reads
// every value-carrying frame kind (core::value_probe).
std::unique_ptr<sched::Scheduler> make_scheduler_impl(SchedKind kind,
                                                      std::uint64_t seed,
                                                      SystemParams params) {
  switch (kind) {
    case SchedKind::kRandom:
      return std::make_unique<sched::RandomScheduler>(seed);
    case SchedKind::kFifo:
      return std::make_unique<sched::FifoScheduler>();
    case SchedKind::kGreedySplit:
      return std::make_unique<sched::GreedySplitScheduler>(
          envelope_aware(core::value_probe()), params.n);
    case SchedKind::kTargeted:
      return std::make_unique<sched::TargetedDelayScheduler>(seed);
    case SchedKind::kClique: {
      std::set<ProcessId> clique;
      for (ProcessId p = 0; p < params.quorum(); ++p) clique.insert(p);
      return std::make_unique<sched::CliqueScheduler>(std::move(clique));
    }
  }
  APXA_ASSERT(false, "unknown scheduler kind");
}

}  // namespace

std::unique_ptr<sched::Scheduler> make_scheduler(const RunConfig& cfg) {
  return make_scheduler_impl(cfg.sched, cfg.seed, cfg.params);
}

std::vector<std::unique_ptr<net::Process>> build_processes(
    const RunConfig& cfg, const core::TraceFn& trace) {
  // Every scalar kind is core::VectorAaProcess at d = 1: the round kinds on
  // the quorum engine, AAD'04 on the equalized engine with the
  // reduce-midpoint rule (core/multidim.hpp).
  const bool witness = cfg.protocol == ProtocolKind::kWitness;
  APXA_ENSURE(witness || cfg.protocol == ProtocolKind::kCrashRound ||
                  cfg.protocol == ProtocolKind::kByzRound,
              "vector protocols take a VectorRunConfig");
  const auto n = cfg.params.n;
  const auto byz = byzantine_ids(cfg);
  std::vector<std::unique_ptr<net::Process>> procs;
  procs.reserve(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (byz.contains(p)) {
      const auto it = std::find_if(cfg.byz.begin(), cfg.byz.end(),
                                   [p](const auto& b) { return b.who == p; });
      procs.push_back(std::make_unique<adversary::ByzVectorProcess>(
          *it, 1,
          witness ? adversary::VectorWire::kRbVec : adversary::VectorWire::kDirect));
      continue;
    }
    core::VectorAaConfig pc;
    pc.params = cfg.params;
    pc.input = {cfg.inputs[p]};
    pc.fixed_rounds = cfg.fixed_rounds;
    if (witness) {
      pc.averager = core::Averager::kReduceMidpoint;
      pc.collect = core::CollectMode::kEqualized;
    } else {
      pc.averager = cfg.protocol == ProtocolKind::kByzRound
                        ? core::Averager::kDlpswAsync
                        : cfg.averager;
      pc.mode = cfg.mode;
      pc.epsilon = cfg.epsilon;
      pc.adaptive_slack = cfg.adaptive_slack;
    }
    if (trace) {
      pc.trace = [trace](ProcessId q, Round r, const std::vector<double>& v) {
        trace(q, r, v[0]);
      };
    }
    pc.trace_sink = cfg.trace;
    procs.push_back(std::make_unique<core::VectorAaProcess>(std::move(pc)));
  }
  return procs;
}

void stage(const RunConfig& cfg, const core::TraceFn& trace,
           exec::Backend& backend) {
  validate(cfg);
  for (auto& proc : build_processes(cfg, trace)) {
    backend.add_process(std::move(proc));
  }
  for (ProcessId b : byzantine_ids(cfg)) backend.mark_byzantine(b);
  adversary::install(backend, cfg.crashes);
}

void validate(const VectorRunConfig& cfg) {
  APXA_ENSURE(cfg.protocol == ProtocolKind::kVectorCrash ||
                  cfg.protocol == ProtocolKind::kVectorByz ||
                  cfg.protocol == ProtocolKind::kVectorConvex ||
                  cfg.protocol == ProtocolKind::kVectorConvexRB,
              "VectorRunConfig takes a vector protocol kind");
  APXA_ENSURE((cfg.protocol != ProtocolKind::kVectorConvex &&
               cfg.protocol != ProtocolKind::kVectorConvexRB) ||
                  (cfg.params.n > 3 * cfg.params.t && cfg.params.t >= 1),
              "convex vector protocols require n > 3t, t >= 1");
  APXA_ENSURE(cfg.dim >= 1, "dimension must be positive");
  APXA_ENSURE(cfg.inputs.size() == cfg.params.n, "inputs must have n rows");
  for (const auto& row : cfg.inputs) {
    APXA_ENSURE(row.size() == cfg.dim, "every input needs `dim` coordinates");
  }
  validate_faults(cfg.params, cfg.crashes, cfg.byz,
                  /*allow_excess_faults=*/false);
}

std::set<ProcessId> byzantine_ids(const VectorRunConfig& cfg) {
  return byz_ids(cfg.byz);
}

std::unique_ptr<sched::Scheduler> make_scheduler(const VectorRunConfig& cfg) {
  return make_scheduler_impl(cfg.sched, cfg.seed, cfg.params);
}

std::vector<std::unique_ptr<net::Process>> build_processes(
    const VectorRunConfig& cfg, const core::VecTraceFn& trace,
    const core::ViewTraceFn& view_trace) {
  // Every vector kind is (collect engine x averaging rule) on one process
  // (core/multidim.hpp).  kVectorByz launders per coordinate with the
  // byzantine-safe DLPSW rule, mirroring the scalar kByzRound path (box
  // validity only); the convex kinds average through the safe area
  // (geom/safe_area.hpp, rule = nullopt) and differ in the collect engine
  // (core/collect.hpp).
  core::CollectMode collect = core::CollectMode::kQuorum;
  std::optional<core::Averager> rule;
  switch (cfg.protocol) {
    case ProtocolKind::kVectorCrash:
      rule = cfg.averager;
      break;
    case ProtocolKind::kVectorByz:
      rule = core::Averager::kDlpswAsync;
      break;
    case ProtocolKind::kVectorConvex:
      break;
    case ProtocolKind::kVectorConvexRB:
      collect = core::CollectMode::kEqualized;
      break;
    default:
      APXA_ENSURE(false, "VectorRunConfig takes a vector protocol kind");
  }

  const auto n = cfg.params.n;
  const auto byz = byzantine_ids(cfg);
  std::vector<std::unique_ptr<net::Process>> procs;
  procs.reserve(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (byz.contains(p)) {
      const auto it = std::find_if(cfg.byz.begin(), cfg.byz.end(),
                                   [p](const auto& b) { return b.who == p; });
      // Against the equalized-collect protocol the attacker speaks the RB
      // wire (equivocating SENDs that Bracha must neutralize); against every
      // other vector protocol it speaks direct vector rounds.
      procs.push_back(std::make_unique<adversary::ByzVectorProcess>(
          *it, cfg.dim,
          collect == core::CollectMode::kEqualized
              ? adversary::VectorWire::kRbVec
              : adversary::VectorWire::kDirect));
      continue;
    }
    core::VectorAaConfig pc;
    pc.params = cfg.params;
    pc.input = cfg.inputs[p];
    pc.averager = rule;
    pc.fixed_rounds = cfg.fixed_rounds;
    pc.collect = collect;
    pc.trace = trace;
    pc.view_trace = view_trace;
    pc.trace_sink = cfg.trace;
    procs.push_back(std::make_unique<core::VectorAaProcess>(std::move(pc)));
  }
  return procs;
}

void stage(const VectorRunConfig& cfg, const core::VecTraceFn& trace,
           exec::Backend& backend, const core::ViewTraceFn& view_trace) {
  validate(cfg);
  for (auto& proc : build_processes(cfg, trace, view_trace)) {
    backend.add_process(std::move(proc));
  }
  for (ProcessId b : byzantine_ids(cfg)) backend.mark_byzantine(b);
  adversary::install(backend, cfg.crashes);
}

exec::DonePredicate make_done_predicate(const RunConfig& cfg) {
  if (cfg.mode != core::TerminationMode::kLive) return {};
  // Live protocols never output; a party is done once it has entered
  // round `fixed_rounds` (the observation horizon).
  return [horizon = cfg.fixed_rounds](const net::Process& pr) {
    return dynamic_cast<const core::VectorAaProcess&>(pr).current_round() >= horizon;
  };
}

}  // namespace apxa::harness
