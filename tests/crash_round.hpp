// Test helper: kCrashRound parties for tests that drive a transport
// directly, built by the harness exactly as harness::run builds them.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "harness/build.hpp"

namespace apxa {

/// Inputs 0, 1, ..., n - 1.
inline std::vector<double> id_inputs(std::uint32_t n) {
  std::vector<double> in(n);
  for (std::uint32_t i = 0; i < n; ++i) in[i] = static_cast<double>(i);
  return in;
}

/// A fault-free kCrashRound scenario: mean rule, `rounds` fixed rounds.
inline harness::RunConfig crash_round(SystemParams params,
                                      std::vector<double> inputs, Round rounds) {
  harness::RunConfig cfg;
  cfg.params = params;
  cfg.protocol = harness::ProtocolKind::kCrashRound;
  cfg.inputs = std::move(inputs);
  cfg.fixed_rounds = rounds;
  return cfg;
}

/// Add the config's parties (harness::build_processes) to `net` in id order.
template <class Net>
void add_parties(Net& net, const harness::RunConfig& cfg) {
  for (auto& proc : harness::build_processes(cfg, {})) {
    net.add_process(std::move(proc));
  }
}

}  // namespace apxa
