// Quantitative checks of the paper's communication-complexity claims
// (Sections 4.2 and 5.4) on measured executions:
//   - Algorithm 4: steady-state amortized cost is O(kappa * n) — linear in
//     n — under every implemented adversary; one-time costs amortize away
//     as L grows.
//   - Algorithm 5.2: steady-state amortized cost is O(kappa * n^2); the
//     Dolev-Strong phase fires at most f times overall.
//   - Baselines: Dolev-Strong (plain) scales ~n^3 per slot; the MR-style
//     baseline ~n^2 per slot; Algorithm 4 scales ~n.
#include <gtest/gtest.h>

#include "bb/dolev_strong.hpp"
#include "bb/linear_bb.hpp"
#include "bb/quadratic_bb.hpp"
#include "runner/fit.hpp"

namespace ambb {
namespace {

double linear_tail(std::uint32_t n, const std::string& adv, Slot slots,
                   Slot warmup, linear::Options opts = {},
                   double eps = 0.1) {
  RunConfig cfg;
  cfg.n = n;
  cfg.f = static_cast<std::uint32_t>((0.5 - eps) * n);
  cfg.slots = slots;
  cfg.seed = 5;
  cfg.eps = eps;
  cfg.adversary = adv;
  cfg.opts = opts;
  auto r = linear::run_linear(cfg);
  EXPECT_TRUE(check_all(r).empty()) << adv;
  return r.amortized_tail(warmup);
}

TEST(CostBounds, LinearSteadyStateIsLinearInN) {
  // Steady-state (post-warmup) amortized bits should grow ~n, not ~n^2.
  // Constant expander degree requires eps = 0.2 (degree 20) so the
  // sweep stays out of the small-n complete-graph regime, and the warmup
  // must scale with n so the O(kappa n^3) one-time costs fall out.
  std::vector<double> ns, costs;
  for (std::uint32_t n : {24u, 32u, 48u, 64u}) {
    ns.push_back(n);
    costs.push_back(linear_tail(n, "mixed", static_cast<Slot>(3 * n),
                                static_cast<Slot>(2 * n), {}, 0.2));
  }
  const double slope = loglog_slope(ns, costs);
  EXPECT_LT(slope, 1.6) << "Algorithm 4 steady state should be ~linear";
  EXPECT_GT(slope, 0.4);
}

TEST(CostBounds, LinearOneTimeCostsAmortizeAway) {
  RunConfig cfg;
  cfg.n = 16;
  cfg.f = 6;
  cfg.slots = 48;
  cfg.seed = 5;
  cfg.adversary = "mixed";
  auto r = linear::run_linear(cfg);
  ASSERT_TRUE(check_all(r).empty());
  // C(L)/L must decrease as L grows (kappa*n^3 term fading).
  EXPECT_LT(r.amortized(48), r.amortized(8));
  EXPECT_LT(r.amortized_tail(24), r.amortized(8));
}

TEST(CostBounds, LinearBeatsMrBaselineAtSteadyState) {
  const double alg4 = linear_tail(24, "mixed", 24, 12);
  const double mr =
      linear_tail(24, "mixed", 24, 12, linear::Options::mr_baseline());
  EXPECT_LT(alg4, mr * 0.8)
      << "Algorithm 4 should clearly beat the always-forward baseline";
}

TEST(CostBounds, MrBaselineIsQuadraticInN) {
  std::vector<double> ns, costs;
  for (std::uint32_t n : {12u, 16u, 24u, 32u}) {
    ns.push_back(n);
    costs.push_back(
        linear_tail(n, "none", 8, 2, linear::Options::mr_baseline()));
  }
  const double slope = loglog_slope(ns, costs);
  EXPECT_GT(slope, 1.6);
  EXPECT_LT(slope, 2.5);
}

TEST(CostBounds, QuadraticSteadyStateIsQuadraticInN) {
  std::vector<double> ns, costs;
  for (std::uint32_t n : {8u, 12u, 16u, 24u}) {
    RunConfig cfg;
    cfg.n = n;
    cfg.f = n / 2;
    cfg.slots = static_cast<Slot>(3 * n);
    cfg.seed = 5;
    cfg.adversary = "silent";
    auto r = quad::run_quadratic(cfg);
    ASSERT_TRUE(check_all(r).empty());
    ns.push_back(n);
    costs.push_back(r.amortized_tail(static_cast<Slot>(2 * n)));
  }
  const double slope = loglog_slope(ns, costs);
  EXPECT_GT(slope, 1.5);
  EXPECT_LT(slope, 2.6);
}

TEST(CostBounds, QuadraticDolevStrongPhaseBounded) {
  // Corrupt-vote traffic is shared across slots: the "corrupt" kind's
  // total bits must not grow once every corrupt sender has been convicted.
  RunConfig cfg;
  cfg.n = 8;
  cfg.f = 4;
  cfg.seed = 5;
  cfg.adversary = "silent";
  cfg.slots = 16;
  auto r1 = quad::run_quadratic(cfg);
  cfg.slots = 48;
  auto r2 = quad::run_quadratic(cfg);
  ASSERT_TRUE(check_all(r1).empty());
  ASSERT_TRUE(check_all(r2).empty());
  std::uint64_t corrupt1 = 0, corrupt2 = 0;
  for (std::size_t i = 0; i < r1.kind_names.size(); ++i) {
    if (r1.kind_names[i] == "corrupt") {
      corrupt1 = r1.per_kind_bits[i];
      corrupt2 = r2.per_kind_bits[i];
    }
  }
  EXPECT_GT(corrupt1, 0u);
  EXPECT_EQ(corrupt1, corrupt2)
      << "Dolev-Strong phase traffic must stop after f convictions";
}

TEST(CostBounds, DolevStrongBenignIsQuadraticInN) {
  // With an honest sender, chains stay length <= 2 and one relay wave
  // fires: Theta(kappa n^2) per slot.
  std::vector<double> ns, costs;
  for (std::uint32_t n : {8u, 12u, 16u, 24u}) {
    RunConfig cfg;
    cfg.n = n;
    cfg.f = n - 2;
    cfg.slots = 4;
    cfg.seed = 5;
    cfg.adversary = "none";
    auto r = ds::run_dolev_strong(cfg);
    ASSERT_TRUE(check_all(r).empty());
    ns.push_back(n);
    costs.push_back(r.amortized());
  }
  const double slope = loglog_slope(ns, costs);
  EXPECT_GT(slope, 1.6);
  EXPECT_LT(slope, 2.5);
}

TEST(CostBounds, DolevStrongWorstCaseIsCubicInN) {
  // The stagger attack injects a second value with a Theta(n)-signature
  // chain, forcing a relay wave of Theta(n)-sized messages: the kappa n^3
  // row of Table 1.
  std::vector<double> ns, costs;
  for (std::uint32_t n : {8u, 12u, 16u, 24u, 32u}) {
    RunConfig cfg;
    cfg.n = n;
    // f = n/2: chains are Theta(n) long AND Theta(n) honest nodes relay
    // them (with f = n-2 only two honest nodes exist and the wave is
    // quadratic).
    cfg.f = n / 2;
    cfg.slots = 4;  // senders 0..3 corrupt, every slot staggered
    cfg.seed = 5;
    cfg.adversary = "stagger";
    auto r = ds::run_dolev_strong(cfg);
    ASSERT_TRUE(check_all(r).empty());
    ns.push_back(n);
    costs.push_back(r.amortized());
  }
  const double slope = loglog_slope(ns, costs);
  EXPECT_GT(slope, 2.3);
  EXPECT_LT(slope, 3.4);
}

TEST(CostBounds, LinearTotalWithinPaperEnvelope) {
  // C(L) <= c1 * kappa * n * L + c2 * kappa * n^3 for generous constants:
  // checks the additive structure, not just the limit.
  for (const char* adv : {"silent", "mixed", "selective"}) {
    RunConfig cfg;
    cfg.n = 20;
    cfg.f = 8;
    cfg.slots = 30;
    cfg.seed = 9;
    cfg.adversary = adv;
    auto r = linear::run_linear(cfg);
    ASSERT_TRUE(check_all(r).empty()) << adv;
    const double kappa = 256, n = 20, L = 30;
    // The linear term's constant absorbs the expander degree (~40) and
    // the handful of per-epoch message types.
    const double envelope = 100 * kappa * n * L + 2 * kappa * n * n * n;
    EXPECT_LT(static_cast<double>(r.honest_bits), envelope) << adv;
  }
}

TEST(CostBounds, FloodAttackDamageIsBounded) {
  // A query2-flooder elicits Respond-2 traffic, but only while it has
  // fresh nodes to accuse: doubling L must not double the damage.
  RunConfig cfg;
  cfg.n = 16;
  cfg.f = 6;
  cfg.seed = 5;
  cfg.adversary = "flood";
  cfg.slots = 16;
  auto r1 = linear::run_linear(cfg);
  cfg.slots = 48;
  auto r2 = linear::run_linear(cfg);
  ASSERT_TRUE(check_all(r1).empty());
  ASSERT_TRUE(check_all(r2).empty());
  // Steady-state tail must be much cheaper than the flooding period.
  EXPECT_LT(r2.amortized_tail(24), r2.amortized(16) * 0.9);
}

}  // namespace
}  // namespace ambb
