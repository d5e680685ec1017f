// Checked kernel timers: single calls into the crypto, ext and graph
// layers, timed from outside the library. Every timer also validates what
// the timed call returned; a timer whose check fails reports ok = false
// and counts as a failed operation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct KernelResult {
  std::string name;  ///< per-layer metric name, e.g. "crypto.mac_ns"
  double value = 0;  ///< median over timed batches
  std::string unit;
  bool ok = true;
  std::string error;  ///< why the check failed, when !ok
};

/// Run every kernel timer once. Inputs are generated from `seed`; each
/// timer measures for roughly `budget_ms`.
std::vector<KernelResult> run_kernels(std::uint64_t seed, double budget_ms);

}  // namespace perfbench
