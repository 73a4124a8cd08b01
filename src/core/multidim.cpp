#include "core/multidim.hpp"

#include "common/ensure.hpp"
#include "geom/geom.hpp"
#include "geom/safe_area.hpp"

namespace apxa::core {

VectorAaProcess::VectorAaProcess(VectorAaConfig cfg) : cfg_(std::move(cfg)) {
  const SystemParams p = cfg_.params;
  if (cfg_.averager) {
    APXA_ENSURE(p.n > 2 * p.t && p.t >= 1, "vector AA requires n > 2t, t >= 1");
  } else {
    APXA_ENSURE(p.n > 3 * p.t && p.t >= 1,
                "safe-area vector AA requires n > 3t, t >= 1");
  }
  APXA_ENSURE(!cfg_.input.empty(), "dimension must be positive");
  value_ = cfg_.input;
  collector_ = make_collector(
      cfg_.collect, p, static_cast<std::uint32_t>(cfg_.input.size()),
      cfg_.fixed_rounds,
      [this](net::Context& ctx, Round r, const std::vector<CollectEntry>& view) {
        on_view(ctx, r, view);
      },
      cfg_.trace_sink);
}

void VectorAaProcess::on_start(net::Context& ctx) {
  self_ = ctx.self();
  if (cfg_.fixed_rounds == 0) {
    if (cfg_.trace) cfg_.trace(self_, 0, value_);
    done_ = true;
    return;
  }
  begin_round(ctx);
}

void VectorAaProcess::begin_round(net::Context& ctx) {
  if (cfg_.trace) cfg_.trace(self_, round_, value_);
  collector_->begin_round(ctx, round_, value_);
}

void VectorAaProcess::on_message(net::Context& ctx, ProcessId from,
                                 BytesView payload) {
  // The equalized engine keeps serving the reliable-broadcast layer after
  // we output: laggards' RB instances need our echoes/readies for totality.
  if (done_ && !collector_->serve_when_done()) return;
  collector_->handle(ctx, from, payload);
}

std::vector<double> VectorAaProcess::average(
    const std::vector<CollectEntry>& view) const {
  std::vector<std::vector<double>> points;
  points.reserve(view.size());
  for (const CollectEntry& e : view) points.push_back(e.value);
  const auto dim = static_cast<std::uint32_t>(value_.size());
  if (cfg_.averager) {
    // Column c of the view is a 1-D multiset; the reduce/select based rules
    // launder byzantine values per coordinate.
    return geom::average_per_coordinate(*cfg_.averager, points, dim,
                                        cfg_.params.t);
  }
  // Trust my own entry and any echo of it: a byzantine copy of my honest
  // value is still my honest value, so keeping it cannot move an average
  // outside the honest hull.  Both collect engines put the own entry in
  // every frozen view, so the certified core of geom::trimmed_centroid is
  // never empty — in particular at zero view slack (n = 3t + 1, views of
  // 2t + 1), where the rule degrades to the certified-honest average.
  std::vector<std::uint8_t> trusted(view.size(), 0);
  for (std::size_t i = 0; i < view.size(); ++i) {
    trusted[i] = view[i].origin == self_ ||
                 geom::same_point(view[i].value, value_);
  }
  return geom::safe_midpoint(points, cfg_.params.t, {}, trusted).point;
}

void VectorAaProcess::on_view(net::Context& ctx, Round r,
                              const std::vector<CollectEntry>& view) {
  APXA_ASSERT(!done_ && r == round_, "view fired for a settled round");
  if (cfg_.view_trace) cfg_.view_trace(self_, r, view);
  value_ = average(view);
  ++round_;
  if (round_ >= cfg_.fixed_rounds) {
    if (cfg_.trace) cfg_.trace(self_, round_, value_);
    done_ = true;
    return;
  }
  begin_round(ctx);
}

}  // namespace apxa::core
