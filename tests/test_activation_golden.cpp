// Event-driven activation equivalence golden (DESIGN.md §17).
//
// The simulator calls an actor only when its inbox is non-empty or its
// reported wake round is due. That is an optimization, not a semantic
// change: every linear-family execution must stay byte-identical to the
// every-actor-every-round simulator. This suite pins, per cell, the
// SHA-256 of the full JSONL trace plus the run totals (rounds, records,
// honest and adversary bits), captured with the every-round simulator.
//
// Cells: every named adversary of the linear registry row, "fuzz",
// the mr-baseline options, and ext:linear, under the lockstep, bounded:2
// and async delay policies, at n=16, L=8 — every combination the
// registry accepts. A drifted cell prints its fresh row in initializer
// syntax, so a deliberate, reviewed format change can re-pin it.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "runner/registry.hpp"
#include "trace/trace.hpp"

namespace ambb {
namespace {

struct GoldenRow {
  const char* protocol;
  const char* adversary;
  const char* net;
  const char* trace_sha256;
  std::uint64_t rounds;
  std::uint64_t records;
  std::uint64_t honest_bits;
  std::uint64_t adversary_bits;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"ext:linear", "fuzz", "async",
     "1c3dea8f50bbb0b5ee78902529298423df58cbf3f7738dc907e90e667dfc1ee3",
     8993, 72089, 46948764, 368784},
    {"ext:linear", "fuzz", "bounded:2",
     "811d5e7efdbbf9322bda2d5581e5e0ea02029c6a9907102d1f2d7b84f3ccd579",
     8993, 5884, 6018308, 75648},
    {"ext:linear", "fuzz", "lockstep",
     "b1f62d6692236b22b51719d7f8dc20c6eedca658994e218463adde08aab5c175",
     8993, 72089, 46948764, 368784},
    {"ext:linear", "none", "async",
     "1b28f95db26d3eccbf0b6c2a2e34c791c3805b6fb8245b4a6bc489b241380764",
     8993, 72064, 48052752, 0},
    {"ext:linear", "none", "bounded:2",
     "d3b0f2226ca53355fb9928972f1a3dbd2ff1c8fd059b02f2b96bfedb414436f8",
     8993, 5897, 6306716, 0},
    {"ext:linear", "none", "lockstep",
     "1b28f95db26d3eccbf0b6c2a2e34c791c3805b6fb8245b4a6bc489b241380764",
     8993, 72064, 48052752, 0},
    {"linear", "adaptive-erase", "async",
     "5229e0eeb385bfdd383dbfd8a935205188bc53cb9802a481c8f8509e543ea677",
     528, 4343, 2671476, 4011},
    {"linear", "adaptive-erase", "bounded:2",
     "02381268b86483cc183cd0d35835cbd6049397c263083d412795f4eedce3c454",
     528, 2623, 1980162, 4011},
    {"linear", "adaptive-erase", "lockstep",
     "5229e0eeb385bfdd383dbfd8a935205188bc53cb9802a481c8f8509e543ea677",
     528, 4343, 2671476, 4011},
    {"linear", "chaos", "async",
     "f1461a0af6daa3a8844b1b42eb36b00ceed1dc036aca04a6e8b69bf2f77ddea4",
     528, 5987, 2457128, 915443},
    {"linear", "chaos", "bounded:2",
     "b2a66a43ee8b8121dd8fd76f8e09d282e11cf218742273cba1d36996523c716f",
     528, 4252, 1694843, 639795},
    {"linear", "chaos", "lockstep",
     "f1461a0af6daa3a8844b1b42eb36b00ceed1dc036aca04a6e8b69bf2f77ddea4",
     528, 5987, 2457128, 915443},
    {"linear", "drop", "async",
     "16b105ec9cf4b8c1e5d7b59d85bf800cbbb99c9886bb55504ad02697a11edbc2",
     528, 6012, 3061694, 649484},
    {"linear", "drop", "bounded:2",
     "122cc52d88234a310c36c928196ad500bc82c8bc5ed6154619ae71c2db00079a",
     528, 3258, 1599595, 358641},
    {"linear", "drop", "lockstep",
     "16b105ec9cf4b8c1e5d7b59d85bf800cbbb99c9886bb55504ad02697a11edbc2",
     528, 6012, 3061694, 649484},
    {"linear", "equivocate", "async",
     "e61f74f8d0c2193eb814ba40118a0395d107e1babe3d65f9e807458c1001b284",
     528, 6756, 3043984, 977564},
    {"linear", "equivocate", "bounded:2",
     "00a274a22da048c4beb2ff72cd6f26fcd7bc971dedd4ea645a10b34ee68bb285",
     528, 3880, 1590032, 588576},
    {"linear", "equivocate", "lockstep",
     "e61f74f8d0c2193eb814ba40118a0395d107e1babe3d65f9e807458c1001b284",
     528, 6756, 3043984, 977564},
    {"linear", "flood", "async",
     "45e829bb88f2fa1ba9fb29c894a38062bb394af2046cc0695170da710f0e126a",
     528, 7164, 2492552, 1208188},
    {"linear", "flood", "bounded:2",
     "2dbe51626e376bfab5d905ef91e70b94aa25af1d40fd72dd6d8726d44024592a",
     528, 4961, 1791081, 808075},
    {"linear", "flood", "lockstep",
     "45e829bb88f2fa1ba9fb29c894a38062bb394af2046cc0695170da710f0e126a",
     528, 7164, 2492552, 1208188},
    {"linear", "fuzz", "async",
     "884d78b0b4377e401eb3d733fab7b87d360d94da6f8124c01e168b1430872d89",
     528, 4224, 2395312, 146528},
    {"linear", "fuzz", "bounded:2",
     "56f0f622f5aca73810f908e0c4467f3757d0c4aea2a919c252789e6109e27629",
     528, 3277, 2154898, 127183},
    {"linear", "fuzz", "lockstep",
     "0a9c0bc6d86991204e4e93858a33e725ea64f666c52b948b5227f93c840505cf",
     528, 4224, 2395312, 146528},
    {"linear", "mixed", "async",
     "c4f2a765a7199730897947f8951ec65cd520b36f6382ecbef026a5bc4523e8e0",
     528, 5809, 2506164, 765426},
    {"linear", "mixed", "bounded:2",
     "c5305fe682b4f2136b1583c0e646713045873ddf9ec4b7ac53b8cd99681752b3",
     528, 3672, 1664304, 481223},
    {"linear", "mixed", "lockstep",
     "c4f2a765a7199730897947f8951ec65cd520b36f6382ecbef026a5bc4523e8e0",
     528, 5809, 2506164, 765426},
    {"linear", "none", "async",
     "08c0075ee8e36ae06f4fc47f3dda79a846ad0ab5eeea5cf6bdf99101e5ad0347",
     528, 4224, 2541840, 0},
    {"linear", "none", "bounded:2",
     "e1fff35cc40bad929bc05029b858cbce69f35e86198d8aa0e1f35238374ad266",
     528, 2966, 2259887, 0},
    {"linear", "none", "lockstep",
     "08c0075ee8e36ae06f4fc47f3dda79a846ad0ab5eeea5cf6bdf99101e5ad0347",
     528, 4224, 2541840, 0},
    {"linear", "selective", "async",
     "76e1738b7995b246d5d4e765740db5a6cf285f41f3400a0828dfbeeb1f369e39",
     528, 5175, 2146912, 799511},
    {"linear", "selective", "bounded:2",
     "9c9dabab0d15f96b3619c8f15d843964e39327e71191649db9dced8ef2f5bd1b",
     528, 4013, 1618330, 594413},
    {"linear", "selective", "lockstep",
     "76e1738b7995b246d5d4e765740db5a6cf285f41f3400a0828dfbeeb1f369e39",
     528, 5175, 2146912, 799511},
    {"linear", "silent", "async",
     "fc34bb9d0f418fb6a283e443d034176897c0396b36ed477c84704ec9fa28c42c",
     528, 3888, 2588032, 0},
    {"linear", "silent", "bounded:2",
     "db5e532c589b9a38353da04e8dd002b23bc22184083c95fd573b905b3c418c78",
     528, 1657, 1298318, 0},
    {"linear", "silent", "lockstep",
     "fc34bb9d0f418fb6a283e443d034176897c0396b36ed477c84704ec9fa28c42c",
     528, 3888, 2588032, 0},
    {"mr-baseline", "adaptive-erase", "async",
     "703acf008fade96b1e7559e88ec83684cf1e9ff515a4a9cdc417ad4dc78aaadf",
     528, 4448, 3721836, 4011},
    {"mr-baseline", "adaptive-erase", "bounded:2",
     "bb57031a60bee5830dbddf6e3d5427237d4610e892de849e88860713c0b44568",
     528, 11781, 9863797, 4011},
    {"mr-baseline", "adaptive-erase", "lockstep",
     "703acf008fade96b1e7559e88ec83684cf1e9ff515a4a9cdc417ad4dc78aaadf",
     528, 4448, 3721836, 4011},
    {"mr-baseline", "chaos", "async",
     "b36812adff80093185645ae5c4a647a3fe3151d75b8ac911be31a6a4488072fa",
     528, 7245, 3212936, 1416387},
    {"mr-baseline", "chaos", "bounded:2",
     "2ea51b6967cc6851993ed9871d89aab729c47622c86e08a009a65a742991a811",
     528, 19282, 8140221, 3119879},
    {"mr-baseline", "chaos", "lockstep",
     "b36812adff80093185645ae5c4a647a3fe3151d75b8ac911be31a6a4488072fa",
     528, 7245, 3212936, 1416387},
    {"mr-baseline", "drop", "async",
     "37f360b2ca1769ac66b2fa4b296a2d84e0dd05fa09d64d54cdce5e409365b1fd",
     528, 11986, 6868525, 1600871},
    {"mr-baseline", "drop", "bounded:2",
     "af1a8f6232d3ba79f4b18105e52172efcc835737fd4664bb5bb045c72bbbeaad",
     528, 14644, 7674203, 1852436},
    {"mr-baseline", "drop", "lockstep",
     "37f360b2ca1769ac66b2fa4b296a2d84e0dd05fa09d64d54cdce5e409365b1fd",
     528, 11986, 6868525, 1600871},
    {"mr-baseline", "equivocate", "async",
     "983019ec21fd41aef0f0ad349a0e5a41f1def8c58e473b7ca8e6f39c4d7caa80",
     528, 14960, 7149712, 2450928},
    {"mr-baseline", "equivocate", "bounded:2",
     "5f0eccec2a4b2d82e82ba52ba5d4e44d54ab0285983477a94643f294ccdb4dd1",
     528, 18546, 8003051, 2953313},
    {"mr-baseline", "equivocate", "lockstep",
     "983019ec21fd41aef0f0ad349a0e5a41f1def8c58e473b7ca8e6f39c4d7caa80",
     528, 14960, 7149712, 2450928},
    {"mr-baseline", "flood", "async",
     "6ea44833eb90393b2300681b4266d1d0616eb3f85058a9aab804417ec525d3e9",
     528, 10964, 3404552, 2288636},
    {"mr-baseline", "flood", "bounded:2",
     "2f98fc137bb4e3f115e08265a4fced599c82c2e5fffcb4b8ab89c22a8a6125b0",
     528, 21668, 8504319, 3624786},
    {"mr-baseline", "flood", "lockstep",
     "6ea44833eb90393b2300681b4266d1d0616eb3f85058a9aab804417ec525d3e9",
     528, 10964, 3404552, 2288636},
    {"mr-baseline", "fuzz", "async",
     "6c70a48e667576dcea3f9630c8fffbbf682cf754e944568bfffbcea9e2e02f1c",
     528, 4472, 3446512, 221280},
    {"mr-baseline", "fuzz", "bounded:2",
     "cc8da320d06c24b0bdd7ba987e13610e66a9db1ee8a93b0080d179dd942aa98e",
     528, 14591, 10269252, 698524},
    {"mr-baseline", "fuzz", "lockstep",
     "d58916f32eb8aa77f40e4e557a54e09e537373f3dcb2a2c5e663848a8158ac4a",
     528, 4472, 3446512, 221280},
    {"mr-baseline", "mixed", "async",
     "d097ca762f34dac52d0fe57b5211e03d58b28ff046ac90daa20bacf3ce6f5c4c",
     528, 7098, 3381220, 1194914},
    {"mr-baseline", "mixed", "bounded:2",
     "caba2740ad2ee3cd0b54dbcf43106868de311df65e8e1e317277ce7b14df2b92",
     528, 16161, 7718127, 2309284},
    {"mr-baseline", "mixed", "lockstep",
     "d097ca762f34dac52d0fe57b5211e03d58b28ff046ac90daa20bacf3ce6f5c4c",
     528, 7098, 3381220, 1194914},
    {"mr-baseline", "none", "async",
     "a64bfd5b8044fdeef746772ff748779ddcc1a3c726e4bcd4a54e4e385914c4eb",
     528, 4352, 3663120, 0},
    {"mr-baseline", "none", "bounded:2",
     "787367586a66e393719fe88d4f55c6f1803e89944ca99d016c44f33987c650fc",
     528, 13512, 11008760, 0},
    {"mr-baseline", "none", "lockstep",
     "a64bfd5b8044fdeef746772ff748779ddcc1a3c726e4bcd4a54e4e385914c4eb",
     528, 4352, 3663120, 0},
    {"mr-baseline", "selective", "async",
     "aa5e6f6f03b32cd112d0cb7cee92b9eaa96a1c11fcd7160a9481ff54c2cf1cc8",
     528, 5219, 2813832, 982460},
    {"mr-baseline", "selective", "bounded:2",
     "0459739e64eb7d57ed822840a878118fe2c00bc49a7e1478c7090424fe7e16d2",
     528, 18793, 8132287, 3001309},
    {"mr-baseline", "selective", "lockstep",
     "aa5e6f6f03b32cd112d0cb7cee92b9eaa96a1c11fcd7160a9481ff54c2cf1cc8",
     528, 5219, 2813832, 982460},
    {"mr-baseline", "silent", "async",
     "4b1e804a9c4a7fbf9da8e05e7c49518061f8f097d154ea3f4a7659ff55198468",
     528, 5952, 5315152, 0},
    {"mr-baseline", "silent", "bounded:2",
     "77376e8ec6a0d6b8ba2cca5afc56d04a4deb35f1f7850e757142d0edfbf3bc6f",
     528, 7037, 6244423, 0},
    {"mr-baseline", "silent", "lockstep",
     "4b1e804a9c4a7fbf9da8e05e7c49518061f8f097d154ea3f4a7659ff55198468",
     528, 5952, 5315152, 0},
};
// clang-format on

constexpr const char* kNets[] = {"lockstep", "bounded:2", "async"};

CommonParams params_for(const std::string& protocol_name,
                        const std::string& adversary, const std::string& net) {
  CommonParams p;
  p.n = 16;
  p.f = 4;
  p.slots = 8;
  p.seed = 1;
  p.adversary = adversary;
  p.net = net;
  if (protocol_name.rfind("ext:", 0) == 0) p.payload_bytes = 1024;
  return p;
}

/// Every (protocol, adversary, net) cell the golden must cover.
std::set<std::tuple<std::string, std::string, std::string>> cells() {
  std::set<std::tuple<std::string, std::string, std::string>> out;
  for (const char* name : {"linear", "mr-baseline", "ext:linear"}) {
    const ProtocolInfo& info = protocol(name);
    std::vector<std::string> advs = info.policy.named;
    advs.push_back("fuzz");
    for (const std::string& adv : advs) {
      if (!info.policy.accepts(adv)) continue;
      for (const char* net : kNets) out.emplace(name, adv, net);
    }
  }
  return out;
}

std::string render_row(const std::string& protocol_name,
                       const std::string& adversary, const std::string& net) {
  std::ostringstream os;
  trace::JsonlSink sink(os);
  const RunResult res = protocol(protocol_name)
                            .run(RunRequest{
                                params_for(protocol_name, adversary, net),
                                &sink});
  const std::string jsonl = os.str();
  const Digest d = Sha256::hash(std::string_view(jsonl));
  std::ostringstream row;
  row << "    {\"" << protocol_name << "\", \"" << adversary << "\", \""
      << net << "\",\n     \"" << to_hex(d) << "\",\n     " << res.rounds
      << ", " << res.stats_summary().records << ", " << res.honest_bits
      << ", " << res.adversary_bits << "},";
  return row.str();
}

std::string expected_row(const GoldenRow& g) {
  std::ostringstream row;
  row << "    {\"" << g.protocol << "\", \"" << g.adversary << "\", \""
      << g.net << "\",\n     \"" << g.trace_sha256 << "\",\n     "
      << g.rounds << ", " << g.records << ", " << g.honest_bits << ", "
      << g.adversary_bits << "},";
  return row.str();
}

TEST(ActivationGolden, CoversEveryAcceptedCell) {
  std::set<std::tuple<std::string, std::string, std::string>> pinned;
  for (const GoldenRow& g : kGolden) {
    EXPECT_TRUE(pinned.emplace(g.protocol, g.adversary, g.net).second)
        << "duplicate golden row " << g.protocol << "/" << g.adversary
        << "/" << g.net;
  }
  std::string missing;
  for (const auto& [name, adv, net] : cells()) {
    if (pinned.count({name, adv, net}) == 0) {
      missing += render_row(name, adv, net) + "\n";
    }
  }
  EXPECT_TRUE(missing.empty()) << "cells without a golden row:\n" << missing;
}

TEST(ActivationGolden, TracesAndTotalsMatchEveryRoundSimulator) {
  for (const GoldenRow& g : kGolden) {
    SCOPED_TRACE(std::string(g.protocol) + "/" + g.adversary + "/" + g.net);
    EXPECT_EQ(render_row(g.protocol, g.adversary, g.net), expected_row(g));
  }
}

}  // namespace
}  // namespace ambb
