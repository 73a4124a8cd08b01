#include "core/sync_engine.hpp"

#include <algorithm>

#include "common/ensure.hpp"
#include "common/rng.hpp"

namespace apxa::core {

namespace {

/// Per-receiver byzantine value in round r, mirroring adversary::ByzVectorProcess at d = 1.
double byz_value(const adversary::ByzSpec& s, ProcessId to, std::uint32_t n,
                 double seen_lo, double seen_hi, Rng& rng) {
  using adversary::ByzKind;
  switch (s.kind) {
    case ByzKind::kSilent:
      return 0.0;  // unused; silent parties are filtered out by the caller
    case ByzKind::kExtremeLow:
      return s.lo;
    case ByzKind::kExtremeHigh:
      return s.hi;
    case ByzKind::kEquivocate:
      return (to < n / 2) ? s.lo : s.hi;
    case ByzKind::kSpoiler: {
      const double width = std::max(1e-12, seen_hi - seen_lo);
      return (to < n / 2) ? seen_lo - s.amplify * width
                          : seen_hi + s.amplify * width;
    }
    case ByzKind::kNoise:
      return rng.next_double(s.lo, s.hi);
    case ByzKind::kHullEscape:
      return seen_hi - s.hull_margin * std::max(1e-12, seen_hi - seen_lo);
  }
  return 0.0;
}

}  // namespace

SyncResult run_sync(const SyncConfig& cfg) {
  const auto n = cfg.params.n;
  const auto t = cfg.params.t;
  APXA_ENSURE(n >= 2, "sync engine needs n >= 2");
  APXA_ENSURE(cfg.inputs.size() == n, "inputs must have size n");
  APXA_ENSURE(cfg.crashes.size() + cfg.byz.size() <= t,
              "cannot exceed the fault budget t");

  enum class Role : std::uint8_t { kCorrect, kCrashing, kByz };
  std::vector<Role> role(n, Role::kCorrect);
  std::vector<const SyncCrash*> crash_of(n, nullptr);
  std::vector<const adversary::ByzSpec*> byz_of(n, nullptr);
  for (const auto& c : cfg.crashes) {
    APXA_ENSURE(c.who < n, "crash victim out of range");
    APXA_ENSURE(role[c.who] == Role::kCorrect, "duplicate fault assignment");
    role[c.who] = Role::kCrashing;
    crash_of[c.who] = &c;
  }
  for (const auto& b : cfg.byz) {
    APXA_ENSURE(b.who < n, "byzantine id out of range");
    APXA_ENSURE(role[b.who] == Role::kCorrect, "duplicate fault assignment");
    role[b.who] = Role::kByz;
    byz_of[b.who] = &b;
  }

  std::vector<double> value = cfg.inputs;
  std::vector<bool> dead(n, false);
  Rng rng(0x5ca1ab1eULL);

  SyncResult res;
  res.final_values.assign(n, std::nullopt);

  auto record = [&](const std::vector<double>& vals) {
    std::vector<double> correct;
    for (ProcessId p = 0; p < n; ++p) {
      if (role[p] == Role::kCorrect) correct.push_back(vals[p]);
    }
    std::sort(correct.begin(), correct.end());
    res.spread_by_round.push_back(spread(correct));
    res.values_by_round.push_back(std::move(correct));
  };
  record(value);

  // The spoiler strategy watches the correct values as they evolve.
  double seen_lo = 0.0, seen_hi = 0.0;
  {
    bool first = true;
    for (ProcessId p = 0; p < n; ++p) {
      if (role[p] == Role::kByz) continue;
      if (first || value[p] < seen_lo) seen_lo = value[p];
      if (first || value[p] > seen_hi) seen_hi = value[p];
      first = false;
    }
  }

  for (Round r = 0; r < cfg.rounds; ++r) {
    std::vector<std::vector<double>> inbox(n);
    for (ProcessId from = 0; from < n; ++from) {
      if (dead[from]) continue;
      switch (role[from]) {
        case Role::kCorrect:
          for (ProcessId to = 0; to < n; ++to) {
            if (dead[to]) continue;
            inbox[to].push_back(value[from]);
            if (to != from) ++res.messages;
          }
          break;
        case Role::kCrashing: {
          const SyncCrash& c = *crash_of[from];
          if (r < c.round) {
            for (ProcessId to = 0; to < n; ++to) {
              if (dead[to]) continue;
              inbox[to].push_back(value[from]);
              if (to != from) ++res.messages;
            }
          } else {
            for (ProcessId to : c.receivers) {
              APXA_ENSURE(to < n, "crash receiver out of range");
              if (dead[to]) continue;
              inbox[to].push_back(value[from]);
              if (to != from) ++res.messages;
            }
            dead[from] = true;
          }
          break;
        }
        case Role::kByz: {
          const adversary::ByzSpec& s = *byz_of[from];
          if (s.kind == adversary::ByzKind::kSilent) break;
          for (ProcessId to = 0; to < n; ++to) {
            if (to == from || dead[to]) continue;
            inbox[to].push_back(byz_value(s, to, n, seen_lo, seen_hi, rng));
            ++res.messages;
          }
          break;
        }
      }
    }

    for (ProcessId p = 0; p < n; ++p) {
      if (dead[p] || role[p] == Role::kByz) continue;
      APXA_ENSURE(!inbox[p].empty(), "synchronous view cannot be empty");
      value[p] = apply_averager(cfg.averager, inbox[p], t);
    }

    for (ProcessId p = 0; p < n; ++p) {
      if (role[p] == Role::kByz || dead[p]) continue;
      seen_lo = std::min(seen_lo, value[p]);
      seen_hi = std::max(seen_hi, value[p]);
    }
    record(value);
  }

  for (ProcessId p = 0; p < n; ++p) {
    if (role[p] == Role::kCorrect && !dead[p]) res.final_values[p] = value[p];
  }
  return res;
}

SyncVectorResult run_sync_vector(const SyncVectorConfig& cfg) {
  const auto n = cfg.params.n;
  APXA_ENSURE(cfg.dim >= 1, "dimension must be positive");
  APXA_ENSURE(cfg.inputs.size() == n, "inputs must have n rows");
  for (const auto& row : cfg.inputs) {
    APXA_ENSURE(row.size() == cfg.dim, "every input needs `dim` coordinates");
  }

  // One scalar lock-step run per coordinate; the fault pattern — and hence
  // the set of surviving parties and the message schedule — is identical in
  // every one, so the runs recombine into a single vector execution whose
  // messages each carry all d coordinates.
  SyncVectorResult res;
  std::vector<SyncResult> per_coord;
  per_coord.reserve(cfg.dim);
  for (std::uint32_t c = 0; c < cfg.dim; ++c) {
    SyncConfig sc;
    sc.params = cfg.params;
    sc.inputs = geom::coordinate(cfg.inputs, c);
    sc.averager = cfg.averager;
    sc.rounds = cfg.rounds;
    sc.crashes = cfg.crashes;
    per_coord.push_back(run_sync(sc));
  }
  res.messages = per_coord.front().messages;

  res.linf_spread_by_round.assign(per_coord.front().spread_by_round.size(), 0.0);
  for (const auto& coord : per_coord) {
    for (std::size_t r = 0; r < coord.spread_by_round.size(); ++r) {
      res.linf_spread_by_round[r] =
          std::max(res.linf_spread_by_round[r], coord.spread_by_round[r]);
    }
  }

  res.final_values.assign(n, std::nullopt);
  std::vector<std::vector<double>> finals;
  for (ProcessId p = 0; p < n; ++p) {
    if (!per_coord.front().final_values[p].has_value()) continue;
    std::vector<double> v(cfg.dim);
    for (std::uint32_t c = 0; c < cfg.dim; ++c) v[c] = *per_coord[c].final_values[p];
    finals.push_back(v);
    res.final_values[p] = std::move(v);
  }

  res.input_box = geom::box_hull(cfg.inputs);
  res.box_validity_ok =
      std::all_of(finals.begin(), finals.end(), [&res](const auto& v) {
        return res.input_box.contains(v);
      });
  res.final_linf_gap = geom::linf_spread(finals);
  return res;
}

}  // namespace apxa::core
