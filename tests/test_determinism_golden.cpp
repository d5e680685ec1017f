// Golden determinism regression: for fixed (protocol, n, f, slots, seed,
// adversary), the ledger totals, the per-slot cost vector and the full
// commit log must be bit-for-bit what the ORIGINAL eager-envelope
// simulator produced. The values below were extracted from the seed
// implementation (one Envelope per (sender, recipient) copy, per-envelope
// std::function accounting) before the shared-record rewrite; any drift
// here means the rewrite changed an execution, not just its speed.
//
// The rows after the seed captures extend the same pin to the hotstuff
// row, to each linear-family options variant, to one fault-schedule
// ("sched:..." / "fuzz") cell per family including ext:*, and to the
// bounded and async delay policies. They were captured from the
// per-family drivers before those were folded into the shared driver
// harness (runner/drive.hpp), so any drift means the harness changed an
// execution.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>

#include "runner/registry.hpp"

namespace ambb {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

std::uint64_t commit_hash(const RunResult& r) {
  std::uint64_t h = kFnvOffset;
  for (Slot k = 1; k <= r.slots; ++k) {
    for (NodeId v = 0; v < r.n; ++v) {
      if (!r.commits.has(v, k)) {
        h = fnv1a(h, 0xDEADULL);
        continue;
      }
      const CommitRecord& c = r.commits.get(v, k);
      h = fnv1a(h, c.value);
      h = fnv1a(h, c.round);
    }
  }
  return h;
}

std::uint64_t per_slot_hash(const RunResult& r) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t b : r.per_slot_bits) h = fnv1a(h, b);
  return h;
}

struct Golden {
  const char* proto;
  std::uint32_t n, f;
  Slot slots;
  std::uint64_t seed;
  const char* adversary;
  std::uint64_t honest_bits;
  std::uint64_t adversary_bits;
  std::uint64_t honest_msgs;
  std::uint64_t per_slot_hash;
  std::uint64_t commit_hash;
  const char* net = "lockstep";
};

// Captured from the seed implementation (see file header).
constexpr Golden kGolden[] = {
    {"linear", 8u, 3u, 4u, 42ull, "mixed", 302148ull, 154795ull, 661ull,
     0xcea0288dedc4bf5dull, 0xe38d8413f9d15134ull},
    {"linear", 8u, 3u, 4u, 42ull, "adaptive-erase", 359377ull, 1716ull,
     726ull, 0xfd5102a55c1619ebull, 0x98a0974e5af3ad6dull},
    {"quadratic", 8u, 4u, 4u, 42ull, "equivocate", 377216ull, 356056ull,
     1008ull, 0xe02eeefdcf551ca3ull, 0xf5a8a45b9af08783ull},
    {"quadratic", 8u, 4u, 4u, 42ull, "conspiracy", 348880ull, 73088ull,
     1008ull, 0xe6c85eae9e696ee4ull, 0xbb6b81897e63558bull},
    {"dolev-strong", 8u, 4u, 3u, 42ull, "stagger", 204708ull, 97887ull,
     168ull, 0x623f7c38ed8f5808ull, 0xfedf54da0e857183ull},
    {"dolev-strong-msig", 8u, 4u, 3u, 42ull, "equivocate", 96768ull,
     110592ull, 168ull, 0x75649199436ad97dull, 0xfedf54da0e857183ull},
    {"phase-king", 10u, 3u, 3u, 42ull, "confuse", 133803ull, 192264ull,
     1539ull, 0x3116ff46abc99a1eull, 0xf979075daad8bf43ull},
    // Captured from the per-family drivers (see file header).
    {"hotstuff", 10u, 3u, 4u, 42ull, "selective", 46260ull, 53004ull,
     81ull, 0x31af80a67187c0fcull, 0x21f59dee0178aa7aull},
    {"hotstuff", 10u, 3u, 4u, 42ull, "none", 102672ull, 0ull,
     180ull, 0x0dd58d3995b1f443ull, 0x32fadd620a883fe7ull},
    {"mr-baseline", 8u, 3u, 4u, 42ull, "mixed", 349847ull, 225389ull,
     734ull, 0x77b85fe2bbc23774ull, 0x97698bb7eb785640ull},
    {"linear-nomem", 8u, 3u, 4u, 42ull, "mixed", 334187ull, 190565ull,
     738ull, 0x616a15e935589489ull, 0xe38d8413f9d15134ull},
    {"linear-noquery", 8u, 3u, 4u, 42ull, "selective", 259319ull, 227331ull,
     526ull, 0xc65399c5206bff8full, 0x0f832605399af183ull},
    {"linear", 8u, 3u, 4u, 42ull, "fuzz", 248413ull, 89372ull,
     455ull, 0xc4cf75d15375ac8full, 0x0ae4a9591a744053ull},
    {"quadratic", 8u, 4u, 4u, 42ull, "fuzz", 173838ull, 80565ull,
     413ull, 0x77c8f6f5b810d33eull, 0x9a65eab2ab089226ull},
    {"dolev-strong", 8u, 4u, 3u, 42ull, "fuzz", 106764ull, 34860ull,
     133ull, 0x1490c34a8b1977cbull, 0x87a1c4eb57498ac9ull},
    {"dolev-strong-msig", 8u, 4u, 3u, 42ull,
     "sched:corrupt(0,0,1);silence(0,0,*);shuffle(1,0,*)", 48384ull, 9216ull,
     84ull, 0xc88441cddf44e6c3ull, 0x0416030926efc7a5ull},
    {"phase-king", 10u, 3u, 3u, 42ull, "fuzz", 523962ull, 191869ull,
     1674ull, 0x70c8026eb58ebf25ull, 0x2066d58e2ef22ae7ull},
    {"hotstuff", 10u, 3u, 4u, 42ull, "fuzz", 66780ull, 19948ull,
     117ull, 0x55342febf6e7c54dull, 0x844ccc415699efdfull},
    {"ext:linear", 8u, 2u, 2u, 42ull, "fuzz", 1648176ull, 16058ull,
     2886ull, 0xc313c800a2ff0bdbull, 0xb0e778ac9eb21b73ull},
    {"ext:quadratic", 8u, 2u, 2u, 42ull, "sched:corrupt(0,1);stagger(1,0,*,1)",
     640947ull, 18352ull, 1065ull, 0x14d926f64baa84c4ull,
     0x2a36181b77f71603ull},
    {"linear", 8u, 3u, 4u, 42ull,
     "sched:corrupt(0,2);delay(5,0,*,1);reorder(2,0,*)", 215309ull, 29197ull,
     692ull, 0x01e2c2a19a399171ull, 0x06816bd16438a6c3ull, "bounded:2"},
    {"quadratic", 8u, 4u, 4u, 42ull, "fuzz:3", 520590ull, 79544ull,
     1470ull, 0xf6226fc3e085766bull, 0xc500975498eb905aull, "async"},
};

class DeterminismGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeterminismGolden, MatchesSeedImplementationBitForBit) {
  const Golden& g = kGolden[GetParam()];
  CommonParams p;
  p.n = g.n;
  p.f = g.f;
  p.slots = g.slots;
  p.seed = g.seed;
  p.adversary = g.adversary;
  p.net = g.net;
  RunResult r = protocol(g.proto).run(p);

  EXPECT_EQ(r.honest_bits, g.honest_bits) << g.proto << "/" << g.adversary;
  EXPECT_EQ(r.adversary_bits, g.adversary_bits)
      << g.proto << "/" << g.adversary;
  EXPECT_EQ(r.honest_msgs, g.honest_msgs) << g.proto << "/" << g.adversary;
  EXPECT_EQ(per_slot_hash(r), g.per_slot_hash)
      << g.proto << "/" << g.adversary << ": per_slot_bits drifted";
  EXPECT_EQ(commit_hash(r), g.commit_hash)
      << g.proto << "/" << g.adversary << ": commit log drifted";
}

TEST_P(DeterminismGolden, RepeatedRunsAreIdentical) {
  const Golden& g = kGolden[GetParam()];
  CommonParams p;
  p.n = g.n;
  p.f = g.f;
  p.slots = g.slots;
  p.seed = g.seed;
  p.adversary = g.adversary;
  p.net = g.net;
  RunResult a = protocol(g.proto).run(p);
  RunResult b = protocol(g.proto).run(p);
  EXPECT_EQ(a.honest_bits, b.honest_bits);
  EXPECT_EQ(a.per_slot_bits, b.per_slot_bits);
  EXPECT_EQ(commit_hash(a), commit_hash(b));
}

INSTANTIATE_TEST_SUITE_P(
    SeedCaptures, DeterminismGolden,
    ::testing::Range(std::size_t{0}, std::size_t{std::size(kGolden)}),
    [](const auto& info) {
      const Golden& g = kGolden[info.param];
      std::string s = std::string(g.proto) + "_" + g.adversary;
      if (std::string(g.net) != "lockstep") s += std::string("_") + g.net;
      // gtest names are [A-Za-z0-9_]; schedule specs carry punctuation.
      for (char& c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return s;
    });

}  // namespace
}  // namespace ambb
