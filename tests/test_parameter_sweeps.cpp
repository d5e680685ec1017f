// Parameter sweeps orthogonal to the main property suites:
//   - Algorithm 4 across the expander parameter eps (the f <= (1/2-eps)n
//     trade-off of Section 4) at the matching maximal f;
//   - cost scaling in the security parameter kappa: crypto-bearing
//     protocols scale ~linearly in kappa (their Table 1 rows carry a
//     kappa factor), the crypto-free phase-king does not;
//   - value-width independence of the signature machinery.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>

#include "bb/linear_bb.hpp"
#include "bb/phase_king.hpp"
#include "bb/quadratic_bb.hpp"
#include "engine/sweep.hpp"

namespace ambb {
namespace {

using EpsParam = std::tuple<double, std::string>;

constexpr double kEpsValues[] = {0.05, 0.1, 0.15, 0.2, 0.25};
constexpr const char* kEpsAdversaries[] = {"none", "silent", "mixed"};

/// The whole eps grid, expanded declaratively (one SweepSpec per eps, so
/// f is coupled to eps via f-frac = 1/2 - eps) and executed ONCE on the
/// engine's worker pool; each TEST_P below then asserts its own cell.
const RunResult& eps_result(double eps, const std::string& adv) {
  static const auto cache = [] {
    std::vector<engine::SweepSpec> specs;
    for (double e : kEpsValues) {
      engine::SweepSpec spec;
      spec.name = "eps" + std::to_string(static_cast<int>(e * 100));
      spec.protocol = "linear";
      spec.ns = {20};
      spec.f_frac = 0.5 - e;  // maximal fault load for this eps
      spec.eps = e;
      spec.slots_list = {6};
      spec.adversaries = {kEpsAdversaries[0], kEpsAdversaries[1],
                          kEpsAdversaries[2]};
      spec.seed_begin = spec.seed_end = 37;
      specs.push_back(std::move(spec));
    }
    const auto sweep_jobs = engine::expand_all(specs);
    const auto outcomes =
        engine::Engine(4).run(engine::to_engine_jobs(sweep_jobs));

    std::map<std::pair<int, std::string>, RunResult> results;
    std::size_t i = 0;
    for (double e : kEpsValues) {
      for (const char* a : kEpsAdversaries) {
        EXPECT_TRUE(outcomes[i].completed)
            << outcomes[i].label << ": " << outcomes[i].error;
        results[{static_cast<int>(e * 100), a}] = outcomes[i].result;
        ++i;
      }
    }
    return results;
  }();
  return cache.at({static_cast<int>(eps * 100), adv});
}

class EpsSweep : public ::testing::TestWithParam<EpsParam> {};

TEST_P(EpsSweep, LinearCorrectAtMaximalFaultLoad) {
  const auto& [eps, adv] = GetParam();
  const RunResult& r = eps_result(eps, adv);
  EXPECT_EQ(r.f, static_cast<std::uint32_t>((0.5 - eps) * 20));
  EXPECT_EQ(check_all(r), std::vector<std::string>{})
      << "eps=" << eps << " f=" << r.f << " adv=" << adv;
}

INSTANTIATE_TEST_SUITE_P(
    Eps, EpsSweep,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.15, 0.2, 0.25),
                       ::testing::Values("none", "silent", "mixed")),
    [](const auto& info) {
      return "eps" +
             std::to_string(
                 static_cast<int>(std::get<0>(info.param) * 100)) +
             "_" + std::get<1>(info.param);
    });

TEST(KappaScaling, LinearCostScalesWithKappa) {
  auto run_with_kappa = [](std::uint32_t kappa) {
    RunConfig cfg;
    cfg.n = 16;
    cfg.f = 6;
    cfg.slots = 8;
    cfg.seed = 41;
    cfg.kappa_bits = kappa;
    cfg.value_bits = 64;  // keep the value term small relative to kappa
    auto r = linear::run_linear(cfg);
    EXPECT_TRUE(check_all(r).empty());
    return static_cast<double>(r.honest_bits);
  };
  const double c256 = run_with_kappa(256);
  const double c512 = run_with_kappa(512);
  // Same execution, double-width signatures: cost grows by a factor in
  // (1, 2] — strictly more than fixed headers, at most the full kappa
  // share.
  EXPECT_GT(c512 / c256, 1.3);
  EXPECT_LE(c512 / c256, 2.0);
}

TEST(KappaScaling, QuadraticCostScalesWithKappa) {
  auto run_with_kappa = [](std::uint32_t kappa) {
    RunConfig cfg;
    cfg.n = 10;
    cfg.f = 5;
    cfg.slots = 10;
    cfg.seed = 41;
    cfg.kappa_bits = kappa;
    cfg.value_bits = 64;
    cfg.adversary = "silent";
    auto r = quad::run_quadratic(cfg);
    EXPECT_TRUE(check_all(r).empty());
    return static_cast<double>(r.honest_bits);
  };
  const double ratio = run_with_kappa(512) / run_with_kappa(256);
  EXPECT_GT(ratio, 1.3);
  EXPECT_LE(ratio, 2.0);
}

TEST(KappaScaling, PhaseKingIsKappaFree) {
  auto run_with_kappa = [](std::uint32_t kappa) {
    RunConfig cfg;
    cfg.n = 10;
    cfg.f = 3;
    cfg.slots = 4;
    cfg.seed = 41;
    cfg.kappa_bits = kappa;
    auto r = pk::run_phase_king(cfg);
    EXPECT_TRUE(check_all(r).empty());
    return r.honest_bits;
  };
  // No signatures anywhere: bit-for-bit identical runs.
  EXPECT_EQ(run_with_kappa(128), run_with_kappa(1024));
}

TEST(ValueWidth, CostsGrowWithValueBitsButExecutionIsIdentical) {
  auto run_with_value_bits = [](std::uint32_t vb) {
    RunConfig cfg;
    cfg.n = 14;
    cfg.f = 5;
    cfg.slots = 5;
    cfg.seed = 43;
    cfg.value_bits = vb;
    auto r = linear::run_linear(cfg);
    EXPECT_TRUE(check_all(r).empty());
    return r;
  };
  auto narrow = run_with_value_bits(64);
  auto wide = run_with_value_bits(1024);
  EXPECT_LT(narrow.honest_bits, wide.honest_bits);
  // The executions themselves (commits, message counts) are identical —
  // only the charged widths differ.
  EXPECT_EQ(narrow.honest_msgs, wide.honest_msgs);
  for (Slot k = 1; k <= 5; ++k) {
    EXPECT_EQ(narrow.commits.get(7, k).value, wide.commits.get(7, k).value);
  }
}

TEST(SenderSchedules, FixedAndReversedSchedulesWork) {
  for (int mode = 0; mode < 2; ++mode) {
    RunConfig cfg;
    cfg.n = 12;
    cfg.f = 4;
    cfg.slots = 6;
    cfg.seed = 47;
    cfg.adversary = "silent";
    cfg.sender_of = mode == 0
                        ? std::function<NodeId(Slot)>(
                              [](Slot) { return NodeId{11}; })
                        : std::function<NodeId(Slot)>([](Slot k) {
                            return static_cast<NodeId>(11 - (k - 1) % 12);
                          });
    auto r = linear::run_linear(cfg);
    EXPECT_EQ(check_all(r), std::vector<std::string>{}) << "mode " << mode;
  }
}

}  // namespace
}  // namespace ambb
