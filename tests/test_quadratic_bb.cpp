// Properties of Algorithm 5.2 (dishonest majority, f < n).
#include "bb/quadratic_bb.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace ambb::quad {
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

using Param = std::tuple<std::uint32_t, std::uint32_t, std::string,
                         std::uint64_t>;

class QuadProperties : public ::testing::TestWithParam<Param> {};

TEST_P(QuadProperties, ConsistencyTerminationValidity) {
  const auto& [n, f, adv, seed] = GetParam();
  auto r = run_quadratic(base_cfg(n, f, 2 * n, seed, adv));
  EXPECT_EQ(check_all(r), std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(
    AdversarySweep, QuadProperties,
    ::testing::Combine(
        ::testing::Values(6u, 10u),
        ::testing::Values(3u),
        ::testing::Values("none", "silent", "equivocate", "conspiracy",
                          "lateprop", "floodaccuse"),
        ::testing::Values(1u, 19u)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<2>(info.param) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

// The headline claim: f < n, i.e. a dishonest MAJORITY is tolerated.
INSTANTIATE_TEST_SUITE_P(
    DishonestMajority, QuadProperties,
    ::testing::Combine(::testing::Values(7u), ::testing::Values(5u, 6u),
                       ::testing::Values("silent", "equivocate",
                                         "conspiracy"),
                       ::testing::Values(2u)),
    [](const auto& info) {
      return "f" + std::to_string(std::get<1>(info.param)) + "_" +
             std::get<2>(info.param);
    });

TEST(Quadratic, HonestSenderValueDelivered) {
  auto cfg = base_cfg(8, 5, 8, 3, "silent");
  cfg.input_for_slot = [](Slot k) { return Value{7000 + k}; };
  auto r = run_quadratic(cfg);
  ASSERT_TRUE(check_all(r).empty());
  for (Slot k = 1; k <= 8; ++k) {
    const NodeId s = r.senders[k];
    if (r.corrupt[s]) continue;
    for (NodeId u = 0; u < 8; ++u) {
      if (r.corrupt[u]) continue;
      EXPECT_EQ(r.commits.get(u, k).value, Value{7000 + k});
    }
  }
}

TEST(Quadratic, CorruptSenderSlotsAllBotUnderSilent) {
  auto r = run_quadratic(base_cfg(8, 5, 10, 3, "silent"));
  ASSERT_TRUE(check_all(r).empty());
  for (Slot k = 1; k <= 10; ++k) {
    if (!r.corrupt[r.senders[k]]) continue;
    for (NodeId u = 0; u < 8; ++u) {
      if (r.corrupt[u]) continue;
      EXPECT_EQ(r.commits.get(u, k).value, kBotValue) << "slot " << k;
    }
  }
}

TEST(Quadratic, ConspiracyCommitsBotDespiteLateValue) {
  // The colluders release the value late; honest nodes hold the value but
  // must still unanimously commit bot (they removed the sender).
  auto r = run_quadratic(base_cfg(9, 4, 9, 7, "conspiracy"));
  ASSERT_TRUE(check_all(r).empty());
  for (Slot k = 1; k <= 9; ++k) {
    if (!r.corrupt[r.senders[k]]) continue;
    for (NodeId u = 4; u < 9; ++u) {
      EXPECT_EQ(r.commits.get(u, k).value, kBotValue)
          << "slot " << k << " node " << u;
    }
  }
}

TEST(Quadratic, RepeatOffenderSlotsAreSilent) {
  // Once a sender has been proven corrupt, its later slots cost (nearly)
  // nothing: no TrustCast accusations are refreshed and the Dolev-Strong
  // phase never re-fires (votes are shared across slots).
  auto cfg = base_cfg(8, 4, 33, 5, "silent");  // senders cycle every 8
  auto r = run_quadratic(cfg);
  ASSERT_TRUE(check_all(r).empty());
  // Slot 1 (node 0, first conviction) vs slot 25 (node 0 again).
  EXPECT_GT(r.per_slot_bits[1], 0u);
  EXPECT_EQ(r.per_slot_bits[25], 0u)
      << "a convicted sender's later slot still caused honest traffic";
}

TEST(Quadratic, FBoundEnforced) {
  auto cfg = base_cfg(4, 4, 1, 1, "none");
  EXPECT_THROW(run_quadratic(cfg), CheckError);
}

TEST(Quadratic, DeterministicAcrossRuns) {
  auto cfg = base_cfg(8, 5, 6, 77, "conspiracy");
  auto r1 = run_quadratic(cfg);
  auto r2 = run_quadratic(cfg);
  EXPECT_EQ(r1.honest_bits, r2.honest_bits);
  EXPECT_EQ(r1.per_slot_bits, r2.per_slot_bits);
}

TEST(Quadratic, MessageSizesFollowWireModel) {
  WireModel w{8, 256, 256};
  Msg m;
  m.kind = Kind::kProp;
  EXPECT_EQ(size_bits(m, w), w.header_bits() + 256 + 256 + w.id_bits());
  m.kind = Kind::kAccuse;
  EXPECT_EQ(size_bits(m, w),
            w.header_bits() + w.id_bits() + 256 + w.id_bits());
  m.kind = Kind::kCorrupt;
  EXPECT_EQ(size_bits(m, w),
            w.header_bits() + w.id_bits() + 256 + w.id_bits());
}

}  // namespace
}  // namespace ambb::quad
