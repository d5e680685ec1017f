#include "bb/phase_king.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace ambb::pk {
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

using Param =
    std::tuple<std::uint32_t, std::uint32_t, std::string, std::uint64_t>;

class PkProperties : public ::testing::TestWithParam<Param> {};

TEST_P(PkProperties, ConsistencyTerminationValidity) {
  const auto& [n, f, adv, seed] = GetParam();
  auto r = run_phase_king(base_cfg(n, f, n, seed, adv));
  EXPECT_EQ(check_all(r), std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(
    AdversarySweep, PkProperties,
    ::testing::Combine(
        ::testing::Values(7u, 10u, 13u), ::testing::Values(2u),
        ::testing::Values("none", "silent", "equivocate", "confuse"),
        ::testing::Values(1u, 9u)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<2>(info.param) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    MaxFault, PkProperties,
    ::testing::Combine(::testing::Values(10u), ::testing::Values(3u),
                       ::testing::Values("silent", "confuse", "equivocate"),
                       ::testing::Values(2u, 4u, 8u)),
    [](const auto& info) {
      return std::get<2>(info.param) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

TEST(PhaseKing, FBoundEnforced) {
  EXPECT_THROW(run_phase_king(base_cfg(9, 3, 1, 1, "none")), CheckError);
  EXPECT_NO_THROW(run_phase_king(base_cfg(10, 3, 1, 1, "none")));
}

TEST(PhaseKing, SilentSenderYieldsUnanimousBot) {
  auto r = run_phase_king(base_cfg(10, 3, 4, 3, "silent"));
  ASSERT_TRUE(check_all(r).empty());
  for (Slot k = 1; k <= 4; ++k) {
    if (!r.corrupt[r.senders[k]]) continue;
    for (NodeId u = 3; u < 10; ++u) {
      EXPECT_EQ(r.commits.get(u, k).value, kBotValue);
    }
  }
}

TEST(PhaseKing, HonestSenderDeliversDespiteConfusers) {
  RunConfig cfg = base_cfg(10, 3, 6, 3, "confuse");
  cfg.input_for_slot = [](Slot k) { return Value{111 * k}; };
  auto r = run_phase_king(cfg);
  ASSERT_TRUE(check_all(r).empty());
  for (Slot k = 1; k <= 6; ++k) {
    if (r.corrupt[r.senders[k]]) continue;
    for (NodeId u = 3; u < 10; ++u) {
      EXPECT_EQ(r.commits.get(u, k).value, Value{111 * k});
    }
  }
}

TEST(PhaseKing, NoCryptoBitsOnWire) {
  // Phase-king messages carry no signatures: size is header + flag +
  // value only, independent of kappa.
  WireModel w{10, 256, 64};
  Msg m;
  m.kind = Kind::kR1;
  m.has_value = true;
  EXPECT_EQ(size_bits(m, w), w.header_bits() + 1 + 64);
  m.has_value = false;
  EXPECT_EQ(size_bits(m, w), w.header_bits() + 1);
}

TEST(PhaseKing, FlatCostAcrossSlots) {
  auto r = run_phase_king(base_cfg(10, 3, 12, 5, "none"));
  ASSERT_TRUE(check_all(r).empty());
  EXPECT_EQ(r.per_slot_bits[3], r.per_slot_bits[11]);
}

}  // namespace
}  // namespace ambb::pk
