// Atomic broadcast layer (Section 2's claim): total order, agreement and
// validity of the per-replica delivered logs, plus DeliveryQueue
// unit behavior (out-of-order buffering, gap-free release).
#include "bb/atomic_broadcast.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace ambb::abc {
namespace {

TEST(DeliveryQueue, InOrderDeliversImmediately) {
  DeliveryQueue q;
  q.decide(1, 0, 100, 10);
  q.decide(2, 1, 200, 20);
  EXPECT_EQ(q.delivered_upto(), 2u);
  EXPECT_EQ(q.log()[0].payload, 100u);
  EXPECT_EQ(q.log()[1].payload, 200u);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(DeliveryQueue, OutOfOrderBuffersBehindGap) {
  DeliveryQueue q;
  q.decide(3, 2, 300, 30);
  q.decide(2, 1, 200, 20);
  EXPECT_EQ(q.delivered_upto(), 0u);  // slot 1 missing
  q.decide(1, 0, 100, 10);
  EXPECT_EQ(q.delivered_upto(), 3u);
  EXPECT_EQ(q.log()[0].slot, 1u);
  EXPECT_EQ(q.log()[2].slot, 3u);
}

TEST(DeliveryQueue, DuplicateDecisionRejected) {
  DeliveryQueue q;
  q.decide(1, 0, 100, 10);
  EXPECT_THROW(q.decide(1, 0, 100, 11), CheckError);
  q.decide(3, 0, 300, 12);
  EXPECT_THROW(q.decide(3, 0, 301, 13), CheckError);
}

class AbcProperties : public ::testing::TestWithParam<std::string> {};

TEST_P(AbcProperties, TotalOrderAgreementValidity) {
  RunConfig cfg;
  cfg.n = 12;
  cfg.f = 4;
  cfg.slots = 10;
  cfg.seed = 19;
  cfg.adversary = GetParam();
  AbcResult r = run_atomic_broadcast(cfg);
  EXPECT_EQ(check_total_order(r), std::vector<std::string>{});
  EXPECT_EQ(check_agreement(r), std::vector<std::string>{});
  EXPECT_EQ(check_abc_validity(r), std::vector<std::string>{});
  // Full delivery: every honest replica's log covers all slots.
  for (NodeId v = 0; v < cfg.n; ++v) {
    if (!r.is_honest(v)) continue;
    EXPECT_EQ(r.replicas[v].delivered_upto(), cfg.slots);
    EXPECT_EQ(r.replicas[v].pending(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Adversaries, AbcProperties,
                         ::testing::Values("none", "silent", "selective",
                                           "mixed", "chaos", "drop"),
                         [](const auto& info) { return info.param; });

TEST(Abc, CustomPayloadsAreDelivered) {
  RunConfig cfg;
  cfg.n = 10;
  cfg.f = 3;
  cfg.slots = 6;
  cfg.seed = 2;
  cfg.input_for_slot = [](Slot k) { return Value{90000 + k}; };
  AbcResult r = run_atomic_broadcast(cfg);
  ASSERT_TRUE(check_total_order(r).empty());
  for (Slot k = 1; k <= 6; ++k) {
    EXPECT_EQ(r.replicas[5].log()[k - 1].payload, Value{90000 + k});
    EXPECT_EQ(r.replicas[5].log()[k - 1].proposer, r.bb.senders[k]);
  }
}

TEST(Abc, DecidedRoundsAreMonotonePerReplica) {
  RunConfig cfg;
  cfg.n = 12;
  cfg.f = 4;
  cfg.slots = 8;
  cfg.seed = 3;
  cfg.adversary = "mixed";
  AbcResult r = run_atomic_broadcast(cfg);
  for (NodeId v = 0; v < cfg.n; ++v) {
    if (!r.is_honest(v)) continue;
    const auto& log = r.replicas[v].log();
    for (std::size_t i = 1; i < log.size(); ++i) {
      // Sequential slots: a later slot is decided in a later round.
      EXPECT_GT(log[i].decided_round, log[i - 1].decided_round);
    }
  }
}

}  // namespace
}  // namespace ambb::abc
