#include "witness/aad04.hpp"

#include <algorithm>

#include "common/ensure.hpp"
#include "core/bounds.hpp"
#include "core/codec.hpp"
#include "core/multiset_ops.hpp"

namespace apxa::witness {

WitnessAaProcess::WitnessAaProcess(WitnessConfig cfg)
    : cfg_(std::move(cfg)),
      hub_(cfg_.params,
           [this](net::Context& ctx, std::uint32_t instance, ProcessId origin,
                  double value) { on_rb_deliver(ctx, instance, origin, value); }) {
  APXA_ENSURE(core::resilience_witness(cfg_.params.n, cfg_.params.t),
              "witness technique requires n > 3t");
  APXA_ENSURE(cfg_.iterations >= 1, "need at least one iteration");
  value_ = cfg_.input;
}

void WitnessAaProcess::on_start(net::Context& ctx) {
  self_ = ctx.self();
  begin_iteration(ctx);
}

void WitnessAaProcess::begin_iteration(net::Context& ctx) {
  if (cfg_.trace) cfg_.trace(self_, iter_, value_);
  hub_.broadcast(ctx, iter_, value_);
  // RB self-delivery arrives through the hub like everyone else's; nothing
  // more to do until deliveries accumulate.
  recheck(ctx, iter_);
}

void WitnessAaProcess::on_message(net::Context& ctx, ProcessId from, BytesView payload) {
  // Iteration hygiene BEFORE the hub sees the message (the rule of
  // core/collect.cpp's equalized engine): no honest party tags traffic with
  // an iteration >= the budget, and echoing a forged out-of-budget RB
  // instance would amplify it into Theta(n^2) honest messages and a
  // permanent hub slot at every correct party.
  if (const auto rb = core::decode_rb(payload)) {
    // Keep serving the reliable-broadcast layer even after outputting:
    // laggards' RB instances need our echoes/readies for totality.
    if (rb->instance < cfg_.iterations) hub_.handle(ctx, from, payload);
    return;
  }
  if (finished_) return;
  if (const auto rep = core::decode_report(payload)) {
    if (rep->iter < cfg_.iterations) on_report(ctx, from, rep->iter, rep->have);
    return;
  }
  // Other traffic (byzantine junk) is ignored.
}

void WitnessAaProcess::on_rb_deliver(net::Context& ctx, std::uint32_t instance,
                                     ProcessId origin, double value) {
  IterState& st = iters_[instance];
  // RB agreement means a second delivery for the same origin cannot happen;
  // keep the first defensively.
  st.delivered.emplace(origin, value);
  recheck(ctx, instance);
}

bool WitnessAaProcess::report_covered(const IterState& st,
                                      const std::vector<bool>& have) const {
  for (ProcessId p = 0; p < have.size(); ++p) {
    if (have[p] && !st.delivered.contains(p)) return false;
  }
  return true;
}

void WitnessAaProcess::on_report(net::Context& ctx, ProcessId from, std::uint32_t iter,
                                 std::vector<bool> have) {
  if (have.size() != cfg_.params.n) return;  // malformed
  const auto listed = static_cast<std::uint32_t>(
      std::count(have.begin(), have.end(), true));
  if (listed < cfg_.params.quorum()) return;  // byzantine under-reporting
  IterState& st = iters_[iter];
  if (st.accepted.contains(from)) return;
  st.pending_reports.emplace(from, std::move(have));
  recheck(ctx, iter);
}

void WitnessAaProcess::recheck(net::Context& ctx, std::uint32_t iter) {
  // Progress is only ever driven by the current iteration; older iterations
  // are settled and newer traffic waits buffered in iters_.
  if (finished_ || iter != iter_) return;
  bool progressed = true;
  while (progressed && !finished_) {
    progressed = false;
    IterState& st = iters_[iter_];

    if (!st.report_sent && st.delivered.size() >= cfg_.params.quorum()) {
      st.report_sent = true;
      std::vector<bool> have(cfg_.params.n, false);
      for (const auto& [origin, v] : st.delivered) have[origin] = true;
      ctx.multicast(core::encode_report(core::ReportMsg{iter_, have}));
      st.accepted.insert(self_);  // own report is trivially covered
    }

    if (st.report_sent) {
      for (auto it = st.pending_reports.begin(); it != st.pending_reports.end();) {
        if (report_covered(st, it->second)) {
          st.accepted.insert(it->first);
          it = st.pending_reports.erase(it);
        } else {
          ++it;
        }
      }
    }

    if (!st.advanced && st.accepted.size() >= cfg_.params.quorum()) {
      st.advanced = true;
      std::vector<double> view;
      view.reserve(st.delivered.size());
      for (const auto& [origin, v] : st.delivered) view.push_back(v);
      value_ = core::apply_averager(core::Averager::kReduceMidpoint, std::move(view),
                                    cfg_.params.t);
      ++iter_;
      if (iter_ >= cfg_.iterations) {
        if (cfg_.trace) cfg_.trace(self_, iter_, value_);
        output_ = value_;
        finished_ = true;
        return;
      }
      begin_iteration(ctx);
      progressed = true;
    }
  }
}

}  // namespace apxa::witness
