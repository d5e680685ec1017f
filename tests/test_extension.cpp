// Extension-protocol subsystem (src/ext/, DESIGN.md §13): the ext:*
// registry rows run the erasure-coded dispersal + digest-base-BB
// pipeline and satisfy every Definition-2 checker, under no adversary
// and under randomized fault schedules; tracing is a pure observer; the
// registry bounds match the k = n - 2f >= 1 requirement; and at large
// payloads the ext rows undercut the raw inline baseline.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "ext/extension.hpp"
#include "runner/registry.hpp"
#include "runner/result.hpp"
#include "trace/trace.hpp"

namespace ambb {
namespace {

const char* kExtRows[] = {"ext:linear", "ext:quadratic", "ext:dolev-strong",
                          "ext:dolev-strong-msig"};

CommonParams small_params(const std::string& adversary = "none") {
  CommonParams p;
  p.n = 8;
  p.f = 2;
  p.slots = 3;
  p.seed = 1;
  p.payload_bytes = 1024;
  p.adversary = adversary;
  return p;
}

TEST(Extension, AllRowsSatisfyDefinition2WithNoAdversary) {
  for (const char* row : kExtRows) {
    const RunResult r = protocol(row).run(RunRequest{small_params(), nullptr});
    EXPECT_EQ(check_all(r), std::vector<std::string>{}) << row;
    EXPECT_EQ(r.n, 8u);
    EXPECT_EQ(r.slots, Slot{3});
    EXPECT_GT(r.honest_bits, 0u) << row;
    EXPECT_EQ(r.adversary_bits, 0u) << row;  // nobody is corrupt
    // Every slot accounts nonzero wire traffic (dispersal + base);
    // index [0] is unused by convention.
    ASSERT_EQ(r.per_slot_bits.size(), 4u) << row;
    for (Slot k = 1; k <= 3; ++k) EXPECT_GT(r.per_slot_bits[k], 0u) << row;
    // Committed value per slot is the payload fingerprint the sender put
    // in (validity is also part of check_all; this pins the plumbing).
    for (Slot k = 1; k <= 3; ++k) {
      EXPECT_EQ(r.commits.get(0, k).value, r.sender_inputs[k]) << row;
    }
  }
}

TEST(Extension, AllRowsSurviveRandomizedFaultSchedules) {
  for (const char* row : kExtRows) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      auto p = small_params("fuzz:5");
      p.seed = seed;
      const RunResult r = protocol(row).run(RunRequest{p, nullptr});
      EXPECT_EQ(check_all(r), std::vector<std::string>{})
          << row << " seed " << seed;
    }
  }
}

TEST(Extension, DefaultPayloadIsKappaSized) {
  // payload_bytes = 0 keeps the historical kappa-sized value semantics:
  // the dispersal phase codes a kappa/8-byte payload.
  auto p = small_params();
  p.payload_bytes = 0;
  const RunResult r =
      protocol("ext:linear").run(RunRequest{p, nullptr});
  EXPECT_EQ(check_all(r), std::vector<std::string>{});
}

TEST(Extension, TracingIsAPureObserver) {
  const auto p = small_params("fuzz:2");
  const RunResult plain = protocol("ext:linear").run(RunRequest{p, nullptr});
  std::ostringstream os;
  trace::JsonlSink sink(os);
  const RunResult traced = protocol("ext:linear").run(RunRequest{p, &sink});
  EXPECT_EQ(plain.honest_bits, traced.honest_bits);
  EXPECT_EQ(plain.adversary_bits, traced.adversary_bits);
  EXPECT_EQ(plain.honest_msgs, traced.honest_msgs);
  EXPECT_EQ(plain.per_slot_bits, traced.per_slot_bits);
  EXPECT_FALSE(os.str().empty());
  // The ext-specific event kinds actually appear in the stream.
  EXPECT_NE(os.str().find("\"chunk-disperse\""), std::string::npos);
  EXPECT_NE(os.str().find("\"chunk-echo\""), std::string::npos);
  EXPECT_NE(os.str().find("\"reconstruct\""), std::string::npos);
}

TEST(Extension, RegistryBoundCapsFAtDispersalThreshold) {
  // k = n - 2f >= 1 needs f <= (n-1)/2 on top of the base family bound.
  EXPECT_EQ(protocol("ext:dolev-strong").max_f(9), 4u);   // (9-1)/2
  EXPECT_EQ(protocol("ext:dolev-strong").max_f(8), 3u);   // (8-1)/2
  EXPECT_EQ(protocol("ext:linear").max_f(10), 4u);        // 2n/5 binds
  EXPECT_EQ(protocol("ext:linear").max_f(8), 3u);         // (n-1)/2 binds

  RunConfig bad;
  bad.n = 8;
  bad.f = 4;  // 2f >= n
  bad.slots = 1;
  EXPECT_THROW(ext::run_extension(bad, "linear"), CheckError);
}

TEST(Extension, NamedBaseAdversariesAreRejected) {
  // The dispersal phase takes schedules; named deviations of the base
  // families do not apply to ext rows (registry policy + driver check).
  EXPECT_FALSE(protocol("ext:linear").policy.accepts("mixed"));
  EXPECT_TRUE(protocol("ext:linear").policy.accepts("none"));
  EXPECT_TRUE(protocol("ext:linear").policy.accepts("fuzz:3"));

  RunConfig cfg;
  cfg.n = 8;
  cfg.f = 2;
  cfg.slots = 1;
  cfg.adversary = "mixed";
  EXPECT_THROW(ext::run_extension(cfg, "linear"), CheckError);
}

TEST(Extension, BeatsRawInlineBaselineAtLargePayload) {
  // The whole point of the subsystem: at L = 64 KiB the coded dispersal
  // (O(L n / k) payload bits + kappa-sized base traffic) undercuts
  // carrying L inline through every protocol message.
  CommonParams p;
  p.n = 12;
  p.f = 3;
  p.slots = 2;
  p.seed = 1;
  p.payload_bytes = 64 * 1024;
  const RunResult ext_r =
      protocol("ext:dolev-strong").run(RunRequest{p, nullptr});

  CommonParams raw = p;
  raw.value_bits = static_cast<std::uint32_t>(8 * raw.payload_bytes);
  const RunResult raw_r =
      protocol("dolev-strong").run(RunRequest{raw, nullptr});

  EXPECT_EQ(check_all(ext_r), std::vector<std::string>{});
  EXPECT_EQ(check_all(raw_r), std::vector<std::string>{});
  EXPECT_LT(ext_r.honest_bits, raw_r.honest_bits);
}

}  // namespace
}  // namespace ambb
