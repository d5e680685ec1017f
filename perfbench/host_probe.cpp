#include "host_probe.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kArenaBytes = std::size_t{48} << 20;
constexpr std::uint64_t kKeys = 50000;
constexpr int kOpsPerProbe = 20000;

volatile std::uint64_t g_sink = 0;

/// The probe's state, kept across calls: a map of kKeys slots with
/// 64–319-byte values, allocated only from a zero-filled (so fully
/// resident) arena. A null upstream makes an overrun throw instead of
/// falling back to the process heap.
struct Churn {
  std::vector<std::byte> arena = std::vector<std::byte>(kArenaBytes);
  std::pmr::monotonic_buffer_resource mono{arena.data(), arena.size(),
                                           std::pmr::null_memory_resource()};
  std::pmr::unsynchronized_pool_resource pool{&mono};
  std::pmr::map<std::uint64_t, std::pmr::vector<std::uint8_t>> map{&pool};
  std::uint64_t rng = 7;

  /// Set a random slot to a fresh value; every third op also erases one.
  void op(int i) {
    const std::uint64_t r = ambb::splitmix64(rng);
    map[r % kKeys].assign(64 + r % 256, static_cast<std::uint8_t>(i));
    if (i % 3 == 0) map.erase(ambb::splitmix64(rng) % kKeys);
  }

  Churn() {
    for (std::uint64_t k = 0; k < kKeys; ++k) op(1);
  }
};

}  // namespace

double host_probe_ms() {
  static Churn churn;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kOpsPerProbe; ++i) churn.op(i);
  g_sink = churn.map.size();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
