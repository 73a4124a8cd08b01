// Test helper: the decisions of scalar protocols, which decide 1-points.
#pragma once

#include <vector>

namespace apxa {

/// First coordinate of every decision, in the order given (transports list
/// correct parties' decisions in id order).
inline std::vector<double> scalar_outputs(
    const std::vector<std::vector<double>>& decisions) {
  std::vector<double> out;
  out.reserve(decisions.size());
  for (const auto& y : decisions) out.push_back(y.at(0));
  return out;
}

}  // namespace apxa
