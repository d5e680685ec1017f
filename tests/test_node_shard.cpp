// Node-sharded round execution (DESIGN.md §15): --node-jobs 1 vs N must
// be byte-identical on every determinism surface — bit totals, per-slot
// and per-kind costs, commit logs, corruption flags, per-round counters,
// and JSONL traces. The suite deliberately leans on the adversary-heavy
// schedules (erase/corrupt, fuzz) because delivery-index semantics are
// where a wrong merge order would first show, and it runs under the TSan
// preset (engine/shard labels), where the worker handshake and every
// thread_local cache on the actor path get raced for real.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "runner/registry.hpp"
#include "trace/trace.hpp"

namespace ambb {
namespace {

/// Shard count for the "parallel" side of every comparison. CI sets
/// AMBB_NODE_JOBS to sweep the axis (scripts/ci.sh tsan lane); default 4
/// exercises uneven shard splits at the small n used here.
std::uint32_t shard_jobs() {
  if (const char* e = std::getenv("AMBB_NODE_JOBS")) {
    const long v = std::strtol(e, nullptr, 10);
    if (v > 0) return static_cast<std::uint32_t>(v);
  }
  return 4;
}

RunResult run_with(const std::string& proto, CommonParams p,
                   std::uint32_t node_jobs,
                   trace::TraceSink* sink = nullptr) {
  p.node_jobs = node_jobs;
  return protocol(proto).run(RunRequest{p, sink});
}

/// Every deterministic field of a RunResult (ns_* timers exempt: they are
/// measurement metadata and naturally differ across thread counts).
void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.n, b.n) << what;
  EXPECT_EQ(a.f, b.f) << what;
  EXPECT_EQ(a.slots, b.slots) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.honest_bits, b.honest_bits) << what;
  EXPECT_EQ(a.adversary_bits, b.adversary_bits) << what;
  EXPECT_EQ(a.honest_msgs, b.honest_msgs) << what;
  EXPECT_EQ(a.per_slot_bits, b.per_slot_bits) << what;
  EXPECT_EQ(a.kind_names, b.kind_names) << what;
  EXPECT_EQ(a.per_kind_bits, b.per_kind_bits) << what;
  EXPECT_EQ(a.corrupt, b.corrupt) << what;
  EXPECT_EQ(a.senders, b.senders) << what;
  EXPECT_EQ(a.sender_inputs, b.sender_inputs) << what;
  for (Slot k = 1; k <= a.slots; ++k) {
    for (NodeId v = 0; v < a.n; ++v) {
      ASSERT_EQ(a.commits.has(v, k), b.commits.has(v, k))
          << what << " node " << v << " slot " << k;
      if (!a.commits.has(v, k)) continue;
      EXPECT_EQ(a.commits.get(v, k).value, b.commits.get(v, k).value)
          << what << " node " << v << " slot " << k;
      EXPECT_EQ(a.commits.get(v, k).round, b.commits.get(v, k).round)
          << what << " node " << v << " slot " << k;
    }
  }
  ASSERT_EQ(a.round_stats.size(), b.round_stats.size()) << what;
  for (std::size_t i = 0; i < a.round_stats.size(); ++i) {
    const RoundStats& ra = a.round_stats[i];
    const RoundStats& rb = b.round_stats[i];
    EXPECT_EQ(ra.round, rb.round) << what << " round " << i;
    EXPECT_EQ(ra.records, rb.records) << what << " round " << i;
    EXPECT_EQ(ra.deliveries, rb.deliveries) << what << " round " << i;
    EXPECT_EQ(ra.honest_bits, rb.honest_bits) << what << " round " << i;
    EXPECT_EQ(ra.adversary_bits, rb.adversary_bits)
        << what << " round " << i;
    EXPECT_EQ(ra.erasures, rb.erasures) << what << " round " << i;
    EXPECT_EQ(ra.corruptions, rb.corruptions) << what << " round " << i;
    EXPECT_EQ(ra.activations, rb.activations) << what << " round " << i;
  }
}

void expect_shard_invariant(const std::string& proto, const CommonParams& p,
                            std::uint32_t jobs) {
  const RunResult serial = run_with(proto, p, 1);
  const RunResult sharded = run_with(proto, p, jobs);
  expect_identical(serial, sharded,
                   proto + "/" + p.adversary + " node-jobs 1 vs " +
                       std::to_string(jobs));
}

TEST(NodeShard, LinearMixedAdversary) {
  CommonParams p;
  p.n = 8;
  p.f = 2;
  p.slots = 4;
  p.seed = 1;
  p.adversary = "mixed";
  expect_shard_invariant("linear", p, shard_jobs());
}

// adaptive-erase drives the after-the-fact removal path: erase indices
// are delivery indices, which depend on the exact merged record order.
TEST(NodeShard, LinearAdaptiveErase) {
  CommonParams p;
  p.n = 12;
  p.f = 4;
  p.slots = 5;
  p.seed = 9;
  p.adversary = "adaptive-erase";
  expect_shard_invariant("linear", p, shard_jobs());
}

TEST(NodeShard, LinearChaos) {
  CommonParams p;
  p.n = 10;
  p.f = 3;
  p.slots = 4;
  p.seed = 5;
  p.adversary = "chaos";
  expect_shard_invariant("linear", p, shard_jobs());
}

// Seeded fuzz schedules compose corrupt/erase/silence/selective faults;
// several seeds so corrupt-mid-run roster rebuilds land on different
// shard boundaries.
TEST(NodeShard, LinearFuzzSchedules) {
  for (std::uint64_t seed : {2u, 3u, 4u}) {
    CommonParams p;
    p.n = 9;
    p.f = 3;
    p.slots = 3;
    p.seed = seed;
    p.adversary = "fuzz:" + std::to_string(seed);
    expect_shard_invariant("linear", p, shard_jobs());
  }
}

TEST(NodeShard, QuadraticEquivocate) {
  CommonParams p;
  p.n = 9;
  p.f = 4;
  p.slots = 4;
  p.seed = 3;
  p.adversary = "equivocate";
  expect_shard_invariant("quadratic", p, shard_jobs());
}

TEST(NodeShard, DolevStrongStagger) {
  CommonParams p;
  p.n = 8;
  p.f = 3;
  p.slots = 3;
  p.seed = 2;
  p.adversary = "stagger";
  expect_shard_invariant("dolev-strong", p, shard_jobs());
}

TEST(NodeShard, PhaseKingConfuse) {
  CommonParams p;
  p.n = 10;
  p.f = 3;
  p.slots = 3;
  p.seed = 4;
  p.adversary = "confuse";
  expect_shard_invariant("phase-king", p, shard_jobs());
}

TEST(NodeShard, HotstuffSelective) {
  CommonParams p;
  p.n = 7;
  p.f = 2;
  p.slots = 4;
  p.seed = 6;
  p.adversary = "selective";  // may stall; identity is what's asserted
  expect_shard_invariant("hotstuff", p, shard_jobs());
}

// ext:linear shards BOTH simulations: the dispersal phase and the nested
// base-family run (node_jobs forwards into the base config).
TEST(NodeShard, ExtensionLinearWithPayload) {
  CommonParams p;
  p.n = 8;
  p.f = 2;
  p.slots = 3;
  p.seed = 11;
  p.payload_bytes = 4096;
  p.adversary = "fuzz:7";
  expect_shard_invariant("ext:linear", p, shard_jobs());
}

// More shards than honest nodes: trailing shards get empty ranges.
TEST(NodeShard, OvershardedRun) {
  CommonParams p;
  p.n = 8;
  p.f = 2;
  p.slots = 3;
  p.seed = 8;
  p.adversary = "silent";
  expect_shard_invariant("linear", p, 32);
}

// Event-driven activation (DESIGN.md §17): the shards apply the same
// skip rule as the serial loop, so the per-round actor-call counts match,
// and Algorithm 4's committed nodes sleep through the quiet epochs.
TEST(NodeShard, ActivationsMatchAndSkipIdleActors) {
  CommonParams p;
  p.n = 32;
  p.f = 8;
  p.slots = 4;
  p.seed = 3;
  p.adversary = "mixed";
  const RunResult serial = run_with("linear", p, 1);
  const RunResult sharded = run_with("linear", p, 4);
  expect_identical(serial, sharded, "linear/mixed n=32 node-jobs 1 vs 4");
  const std::uint64_t calls = serial.stats_summary().activations;
  EXPECT_GT(calls, 0u);
  EXPECT_LT(calls, std::uint64_t{p.n} * serial.rounds);
}

// node_jobs = 0 resolves to hardware concurrency inside the simulator;
// whatever it resolves to must still match serial.
TEST(NodeShard, AutoNodeJobsMatchesSerial) {
  CommonParams p;
  p.n = 8;
  p.f = 2;
  p.slots = 3;
  p.seed = 12;
  p.adversary = "mixed";
  const RunResult serial = run_with("linear", p, 1);
  const RunResult autos = run_with("linear", p, 0);
  expect_identical(serial, autos, "linear/mixed node-jobs 1 vs auto");
}

std::string render_trace(std::uint32_t node_jobs) {
  CommonParams p;
  p.n = 8;
  p.f = 2;
  p.slots = 4;
  p.seed = 1;
  p.adversary = "mixed";
  std::ostringstream os;
  trace::JsonlSink sink(os);
  run_with("linear", p, node_jobs, &sink);
  return os.str();
}

// The strongest ordering claim: the full JSONL event stream — actor
// emissions interleaved with simulator and driver emissions — is
// byte-identical to the serial render AND to the checked-in golden (the
// same file test_trace_golden pins for node_jobs = 1).
TEST(NodeShard, TraceJsonlByteIdentical) {
  const std::string serial = render_trace(1);
  const std::string sharded = render_trace(shard_jobs());
  ASSERT_FALSE(serial.empty());
  if (serial != sharded) {
    std::istringstream sa(serial), sb(sharded);
    std::string la, lb;
    std::size_t line = 1;
    while (std::getline(sa, la) && std::getline(sb, lb) && la == lb) ++line;
    FAIL() << "sharded trace diverged at line " << line << "\n  serial:  "
           << la << "\n  sharded: " << lb;
  }

  const std::string path =
      std::string(AMBB_GOLDEN_DIR) + "/trace_linear_n8_f2_L4_seed1.jsonl";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(sharded, want.str());
}

// Repeated sharded runs are stable (no hidden dependence on thread
// scheduling), including when the same process re-runs with a different
// shard count in between (pool teardown/rebuild path).
TEST(NodeShard, ShardedRunsAreReproducible) {
  CommonParams p;
  p.n = 8;
  p.f = 2;
  p.slots = 4;
  p.seed = 1;
  p.adversary = "mixed";
  const RunResult a = run_with("linear", p, shard_jobs());
  const RunResult b = run_with("linear", p, 2);
  const RunResult c = run_with("linear", p, shard_jobs());
  expect_identical(a, b, "jobs N vs 2");
  expect_identical(a, c, "jobs N repeat");
}

}  // namespace
}  // namespace ambb
