// Shared types of the benchmark driver.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/view.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

// One round runs one fixed input, generated from the seed, to completion.
struct RoundConfig {
  unsigned threads = 1;
  std::uint64_t seed = 1;
  bool smoke = false;   // tiny input for the self-test
  bool traced = false;  // views record their adaptation trace
};

// The q-quantile (0 <= q <= 1) of `values`, linearly interpolated; 0 when
// empty.
double quantile(std::vector<double> values, double q);

// Per-layer metrics read from the views after a round: stm abort and cycle
// counters, arena and limbo sizes, and RAC quotas, deltas and decisions.
void view_metrics(const std::vector<votm::core::View*>& views, Metrics& out);

// Sum of committed transactions over `views` (driver/world parity).
std::uint64_t total_commits(const std::vector<votm::core::View*>& views);

}  // namespace perfbench
