#include "core/multidim.hpp"

#include <algorithm>

#include "common/ensure.hpp"
#include "core/bounds.hpp"
#include "geom/geom.hpp"
#include "geom/safe_area.hpp"

namespace apxa::core {

VectorAaProcess::VectorAaProcess(VectorAaConfig cfg)
    : dim_(static_cast<std::uint32_t>(cfg.input.size())), cfg_(std::move(cfg)) {
  const SystemParams p = cfg_.params;
  if (cfg_.averager) {
    APXA_ENSURE(p.n > 2 * p.t && p.t >= 1, "vector AA requires n > 2t, t >= 1");
  } else {
    APXA_ENSURE(p.n > 3 * p.t && p.t >= 1,
                "safe-area vector AA requires n > 3t, t >= 1");
  }
  APXA_ENSURE(dim_ >= 1, "dimension must be positive");
  value_ = std::move(cfg_.input);
  const bool adaptive = cfg_.mode == TerminationMode::kAdaptive;
  QuorumHook hook;
  if (adaptive) {
    APXA_ENSURE(dim_ == 1 && cfg_.averager && cfg_.collect == CollectMode::kQuorum,
                "adaptive termination runs scalar per-coordinate quorum rounds");
    APXA_ENSURE(cfg_.epsilon > 0.0, "adaptive mode needs epsilon > 0");
    APXA_ENSURE(cfg_.adaptive_slack >= 1.0, "adaptive slack must be >= 1");
    range_lo_ = range_hi_ = value_[0];
    hook.budget = [this] { return budget_; };
    hook.observe = [this](double v, std::optional<std::uint32_t> b) { observe(v, b); };
  }
  collector_ = make_collector(
      cfg_.collect, p, dim_, adaptive ? kAdaptiveBudgetCap : cfg_.fixed_rounds,
      [this](net::Context& ctx, Round r, const std::vector<CollectEntry>& view) {
        on_view(ctx, r, view);
      },
      cfg_.trace_sink, std::move(hook));
}

void VectorAaProcess::on_start(net::Context& ctx) {
  self_ = ctx.self();
  if (budget_reached()) {
    stop(ctx);  // a zero budget or horizon: stop at the input, silently
    return;
  }
  begin_round(ctx);
}

void VectorAaProcess::begin_round(net::Context& ctx) {
  if (cfg_.trace) cfg_.trace(self_, round_, value_);
  collector_->begin_round(ctx, round_, std::move(value_));
}

void VectorAaProcess::on_message(net::Context& ctx, ProcessId from,
                                 BytesView payload) {
  // The equalized engine keeps serving the reliable-broadcast layer after
  // we stop: laggards' RB instances need our echoes/readies for totality.
  if (stopped_ && !collector_->serve_when_done()) return;
  collector_->handle(ctx, from, payload);
}

std::vector<double> VectorAaProcess::average(
    const std::vector<CollectEntry>& view) const {
  if (cfg_.averager) {
    // Column c of the view is a 1-D multiset; the reduce/select based rules
    // launder byzantine values per coordinate.
    std::vector<double> next(dim_);
    for (std::uint32_t c = 0; c < dim_; ++c) {
      std::vector<double> column;
      column.reserve(view.size());
      for (const CollectEntry& e : view) column.push_back(e.value[c]);
      next[c] = apply_averager(*cfg_.averager, std::move(column), cfg_.params.t);
    }
    return next;
  }
  // Trust my own entry and any echo of it: a byzantine copy of my honest
  // value is still my honest value, so keeping it cannot move an average
  // outside the honest hull.  Both collect engines put the own entry in
  // every frozen view, so the certified core of geom::trimmed_centroid is
  // never empty — in particular at zero view slack (n = 3t + 1, views of
  // 2t + 1), where the rule degrades to the certified-honest average.
  const auto own = std::find_if(view.begin(), view.end(), [this](const CollectEntry& e) {
    return e.origin == self_;
  });
  APXA_ASSERT(own != view.end(), "frozen view lacks the own entry");
  std::vector<std::vector<double>> points;
  points.reserve(view.size());
  std::vector<std::uint8_t> trusted(view.size(), 0);
  for (std::size_t i = 0; i < view.size(); ++i) {
    points.push_back(view[i].value);
    trusted[i] = view[i].origin == self_ ||
                 geom::same_point(view[i].value, own->value);
  }
  return geom::safe_midpoint(points, cfg_.params.t, {}, trusted).point;
}

void VectorAaProcess::on_view(net::Context& ctx, Round r,
                              const std::vector<CollectEntry>& view) {
  APXA_ASSERT(!stopped_ && r == round_, "view fired for a settled round");
  if (cfg_.view_trace) cfg_.view_trace(self_, r, view);
  if (cfg_.mode == TerminationMode::kAdaptive && !budget_known_) {
    // Budget from the round-0 view's spread (laundered under the
    // byzantine-safe rules so fake extremes cannot inflate the estimate
    // unboundedly).
    std::vector<double> est;
    est.reserve(view.size());
    for (const CollectEntry& e : view) est.push_back(e.value[0]);
    std::sort(est.begin(), est.end());
    if (averager_is_byzantine_safe(*cfg_.averager) &&
        est.size() > 2 * cfg_.params.t) {
      est = reduce(est, cfg_.params.t);
    }
    budget_known_ = true;
    adopt_budget(std::max<Round>(1, budget_for(spread(est))));
  }
  value_ = average(view);
  if (cfg_.mode == TerminationMode::kAdaptive) observe(value_[0], std::nullopt);
  ++round_;
  if (budget_reached()) {
    stop(ctx);
    return;
  }
  begin_round(ctx);
}

bool VectorAaProcess::budget_reached() const {
  if (cfg_.mode == TerminationMode::kAdaptive) {
    return budget_known_ && round_ >= budget_;
  }
  return round_ >= cfg_.fixed_rounds;
}

void VectorAaProcess::stop(net::Context& ctx) {
  if (cfg_.trace) cfg_.trace(self_, round_, value_);
  stopped_ = true;
  if (cfg_.mode == TerminationMode::kAdaptive) {
    ctx.multicast(encode_done(DoneMsg{round_, value_[0]}));
  }
}

Round VectorAaProcess::budget_for(double width) const {
  return rounds_needed(
      cfg_.adaptive_slack * width, cfg_.epsilon,
      predicted_factor(*cfg_.averager, cfg_.params.n, cfg_.params.t));
}

void VectorAaProcess::observe(double v, std::optional<std::uint32_t> budget) {
  range_lo_ = std::min(range_lo_, v);
  range_hi_ = std::max(range_hi_, v);
  if (!budget) return;  // own averages and DONE values only widen the range
  adopt_budget(*budget);
  // A wider known range may demand more rounds; raise the budget.
  if (budget_known_) adopt_budget(budget_for(range_hi_ - range_lo_));
}

void VectorAaProcess::adopt_budget(Round b) {
  budget_ = std::max(budget_, std::min(b, kAdaptiveBudgetCap));
}

}  // namespace apxa::core
