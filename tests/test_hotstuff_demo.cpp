// Appendix A: HotStuff without a fallback path loses liveness under a
// selective-send leader — and Algorithm 4, in the identical scenario
// (same leader-hub common path), does not.
#include "bb/hotstuff_demo.hpp"

#include <gtest/gtest.h>

#include "bb/linear_bb.hpp"

namespace ambb {
namespace {

RunConfig base_cfg(std::uint32_t n, std::uint32_t f, Slot slots,
                      std::uint64_t seed, const std::string& adv) {
  RunConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.slots = slots;
  cfg.seed = seed;
  cfg.adversary = adv;
  return cfg;
}

TEST(HotStuff, FailureFreeAllCommit) {
  auto r = hs::run_hotstuff_demo(base_cfg(10, 3, 6, 1, "none"));
  EXPECT_TRUE(check_all(r).empty());
}

TEST(HotStuff, SelectiveLeaderStallsExactlyTheStarvedNodes) {
  const std::uint32_t n = 10, f = 3;
  auto r = hs::run_hotstuff_demo(base_cfg(n, f, 6, 1, "selective"));
  // Safety holds...
  EXPECT_TRUE(check_consistency(r).empty());
  EXPECT_TRUE(check_validity(r).empty());
  // ...but liveness fails, permanently, for the starved nodes in every
  // corrupt-leader slot.
  for (Slot k = 1; k <= 6; ++k) {
    const bool corrupt_leader = r.corrupt[r.senders[k]] != 0;
    for (NodeId u = f; u < n; ++u) {
      const bool starved = u >= n - f;
      if (corrupt_leader && starved) {
        EXPECT_FALSE(r.commits.has(u, k))
            << "starved node " << u << " should stall in slot " << k;
      } else {
        EXPECT_TRUE(r.commits.has(u, k))
            << "node " << u << " should commit slot " << k;
      }
    }
  }
}

TEST(HotStuff, StallIsPermanentAcrossSlots) {
  auto r = hs::run_hotstuff_demo(base_cfg(10, 3, 30, 2, "selective"));
  auto term_errors = check_termination(r);
  // 3 corrupt-leader slots per 10-slot cycle, 3 starved nodes each.
  EXPECT_EQ(term_errors.size(), 9u * 3u);
}

TEST(HotStuff, Algorithm4RecoversInTheSameScenario) {
  // Same n, f, rotation, and a selective-send leader strategy: the paper's
  // protocol commits everywhere thanks to the Query/Respond path.
  RunConfig cfg;
  cfg.n = 10;
  cfg.f = 3;
  cfg.slots = 6;
  cfg.seed = 1;
  cfg.eps = 0.1;
  cfg.adversary = "selective";
  auto r = linear::run_linear(cfg);
  EXPECT_EQ(check_all(r), std::vector<std::string>{});
}

TEST(HotStuff, FBoundEnforced) {
  EXPECT_THROW(hs::run_hotstuff_demo(base_cfg(9, 3, 1, 1, "none")),
               CheckError);
}

TEST(HotStuff, FailureFreeCostIsLinearPerSlot) {
  // The whole point of the leader hub: per-slot cost grows linearly in n.
  auto r16 = hs::run_hotstuff_demo(base_cfg(16, 5, 4, 1, "none"));
  auto r32 = hs::run_hotstuff_demo(base_cfg(32, 10, 4, 1, "none"));
  ASSERT_TRUE(check_all(r16).empty());
  ASSERT_TRUE(check_all(r32).empty());
  const double ratio = static_cast<double>(r32.honest_bits) /
                       static_cast<double>(r16.honest_bits);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 3.0);  // ~2x for 2x nodes, not ~4x
}

}  // namespace
}  // namespace ambb
