// Steady-state allocation audit for the Algorithm 4 hot path (DESIGN.md
// §14). Global operator new/delete are replaced with counting hooks and a
// full multi-shot run is stepped with a per-round observer: once the
// warmup slots have grown every arena, ArenaVector hint, and reserved
// container to its high-water mark, each remaining round must perform
// ZERO heap allocations. This is the enforcement side of the per-round
// arena design — a regression that sneaks a std::vector rebuild or a
// node-based container back into the round loop fails here, not in a
// profiler three PRs later.
//
// The hooks count every allocation in the process, so the test avoids
// allocating in its own observer (the sample buffer is pre-reserved).
// Not run under asan/tsan (the sanitizer allocators bypass user
// replacements); see tests/CMakeLists.txt labels.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "bb/linear_bb.hpp"
#include "runner/result.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ambb {
namespace {

TEST(AllocHotPath, SteadyStateAlg4RoundsAllocateNothing) {
  RunConfig cfg;
  cfg.n = 16;
  cfg.f = 4;
  cfg.slots = 6;
  cfg.seed = 3;
  cfg.eps = 0.2;
  cfg.adversary = "none";

  // Absolute counter samples, one per round; pre-reserved so recording
  // them is itself allocation-free.
  const std::uint64_t total_rounds =
      std::uint64_t{cfg.slots} * linear::Schedule{cfg.f}.rounds_per_slot();
  std::vector<std::uint64_t> samples;
  samples.reserve(static_cast<std::size_t>(total_rounds) + 1);
  SimHooks<linear::Sim> hooks;
  hooks.on_round_end = [&samples](Round, linear::Sim&) {
    samples.push_back(g_allocs.load(std::memory_order_relaxed));
  };

  samples.push_back(g_allocs.load(std::memory_order_relaxed));
  const RunResult r = run_linear(cfg, hooks);
  ASSERT_EQ(samples.size(), static_cast<std::size_t>(total_rounds) + 1);
  ASSERT_EQ(r.rounds, total_rounds);

  // Warmup: the first two slots grow arenas/hints to high water (slot 1
  // populates everything once; slot 2 covers paths that only allocate on
  // the second pass, e.g. geometric reservations finishing).
  const std::uint64_t rounds_per_slot = total_rounds / cfg.slots;
  const std::size_t warmup = static_cast<std::size_t>(2 * rounds_per_slot);

  std::uint64_t steady_allocs = 0;
  for (std::size_t i = warmup; i + 1 < samples.size(); ++i) {
    const std::uint64_t delta = samples[i + 1] - samples[i];
    EXPECT_EQ(delta, 0u) << "round " << i << " performed " << delta
                         << " heap allocations in steady state";
    steady_allocs += delta;
  }
  EXPECT_EQ(steady_allocs, 0u);

  // The run itself must still be a real, committing execution.
  EXPECT_GT(r.honest_bits, 0u);
  EXPECT_GT(samples.back(), samples.front());  // warmup did allocate
}

TEST(AllocHotPath, HooksActuallyCount) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  auto* p = new std::uint64_t[8];
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  delete[] p;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace ambb
