// SweepSpec expansion and the ambb_sweep spec-file parser
// (src/engine/sweep.hpp): cross-product order, label scheme, fault-load
// selection modes, filtering, registry validation, and the line-oriented
// parse errors.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "engine/sweep.hpp"
#include "runner/registry.hpp"

namespace ambb::engine {
namespace {

TEST(SweepExpand, DefaultsGiveOneJobWithMinimalLabel) {
  SweepSpec spec;
  spec.protocol = "phase-king";
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 1u);
  // No explicit name: the protocol prefixes the label; single-valued
  // dimensions (f, L, seed, rep) are omitted after /n.
  EXPECT_EQ(jobs[0].label, "phase-king/none/n16");
  EXPECT_EQ(jobs[0].protocol, "phase-king");
  EXPECT_EQ(jobs[0].params.n, 16u);
  EXPECT_EQ(jobs[0].params.f, 16u / 3);  // default fault load n/3
  EXPECT_EQ(jobs[0].params.slots, Slot{8});
  EXPECT_EQ(jobs[0].params.seed, 1u);
  EXPECT_FALSE(jobs[0].allow_stall);
}

TEST(SweepExpand, CrossProductOrderIsNThenFThenSlotsThenAdvThenSeedThenRep) {
  SweepSpec spec;
  spec.name = "grid";
  spec.protocol = "dolev-strong";
  spec.ns = {8, 12};
  spec.fs = {1, 2};
  spec.slots_list = {4, 6};
  spec.adversaries = {"none", "silent"};
  spec.seed_begin = 1;
  spec.seed_end = 2;
  spec.repetitions = 2;

  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 64u);  // 2*2*2*2*2*2

  // Innermost dimension first: repetitions vary fastest, n slowest.
  EXPECT_EQ(jobs[0].label, "grid/none/n8/f1/L4/s1/r1");
  EXPECT_EQ(jobs[1].label, "grid/none/n8/f1/L4/s1/r2");
  EXPECT_EQ(jobs[2].label, "grid/none/n8/f1/L4/s2/r1");
  EXPECT_EQ(jobs[4].label, "grid/silent/n8/f1/L4/s1/r1");
  EXPECT_EQ(jobs[8].label, "grid/none/n8/f1/L6/s1/r1");
  EXPECT_EQ(jobs[16].label, "grid/none/n8/f2/L4/s1/r1");
  EXPECT_EQ(jobs[32].label, "grid/none/n12/f1/L4/s1/r1");
  EXPECT_EQ(jobs[63].label, "grid/silent/n12/f2/L6/s2/r2");

  // Params track the label.
  EXPECT_EQ(jobs[63].params.n, 12u);
  EXPECT_EQ(jobs[63].params.f, 2u);
  EXPECT_EQ(jobs[63].params.slots, Slot{6});
  EXPECT_EQ(jobs[63].params.adversary, "silent");
  EXPECT_EQ(jobs[63].params.seed, 2u);
}

TEST(SweepExpand, FFracFloorsPerNMatchingBenchArithmetic) {
  SweepSpec spec;
  spec.protocol = "linear";
  spec.ns = {24, 32, 48};
  spec.f_frac = 0.3;
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Same f the benches compute at these n (7, 9, 14): the exact-floor
    // rewrite must not move any existing golden.
    EXPECT_EQ(jobs[i].params.f,
              static_cast<std::uint32_t>(0.3 * spec.ns[i]));
  }
}

TEST(SweepExpand, FFracIsExactWhereFloatTruncationLostAUnit) {
  // Regression: 0.3 * 10 is 2.999... in binary; the old
  // static_cast<uint32_t>(f_frac * n) truncated it to f=2. floor(3*10/10)
  // is exactly 3 — via the rational path AND the double fallback (which
  // snaps to the nearest 1e-9 before flooring).
  const std::vector<std::uint32_t> ns = {10, 20, 24, 32, 48, 64};
  const std::vector<std::uint32_t> want = {3, 6, 7, 9, 14, 19};

  SweepSpec rational;
  rational.protocol = "linear";
  rational.ns = ns;
  rational.f_frac_num = 3;
  rational.f_frac_den = 10;

  SweepSpec fallback;
  fallback.protocol = "linear";
  fallback.ns = ns;
  fallback.f_frac = 0.3;

  const auto jr = expand(rational);
  const auto jf = expand(fallback);
  ASSERT_EQ(jr.size(), ns.size());
  ASSERT_EQ(jf.size(), ns.size());
  for (std::size_t i = 0; i < ns.size(); ++i) {
    EXPECT_EQ(jr[i].params.f, want[i]) << "rational, n=" << ns[i];
    EXPECT_EQ(jf[i].params.f, want[i]) << "fallback, n=" << ns[i];
  }
}

TEST(SpecParser, FFracAcceptsRationalsAndRejectsJunk) {
  auto f_of = [](const std::string& frac, std::uint32_t n) {
    const auto specs = parse_spec("sweep x\nprotocol dolev-strong\nn " +
                                  std::to_string(n) + "\nf-frac " + frac +
                                  "\n");
    const auto jobs = expand_all(specs);
    AMBB_CHECK(jobs.size() == 1);
    return jobs[0].params.f;
  };
  EXPECT_EQ(f_of("1/3", 12), 4u);
  EXPECT_EQ(f_of("1/3", 10), 3u);   // floor(10/3)
  EXPECT_EQ(f_of("1/2", 7), 3u);
  EXPECT_EQ(f_of("0.3", 10), 3u);   // the regression case
  EXPECT_EQ(f_of("0.25", 10), 2u);  // floor still floors
  EXPECT_EQ(f_of("333333333/1000000000", 30), 9u);  // 9-digit den is legal

  for (const char* bad :
       {"3/0", "4/3", "1.5", "0.0000000001", "1//2", "x", "0..3"}) {
    EXPECT_THROW(parse_spec(std::string("sweep x\nprotocol linear\nn 10\n"
                                        "f-frac ") +
                            bad + "\n"),
                 CheckError)
        << bad;
  }
}

TEST(SweepExpand, ScheduleSpecsExpandForEveryProtocol) {
  // "sched:..." / "fuzz" tokenize as one word in spec files and are
  // accepted by every registry protocol; allow_stall follows the
  // registry's sched_may_stall flag instead of known_liveness_failures.
  for (const char* proto : {"linear", "hotstuff"}) {
    SweepSpec spec;
    spec.protocol = proto;
    spec.ns = {8};
    spec.fs = {2};
    spec.adversaries = {"sched:corrupt(0,0);silence(0,0,*)", "fuzz"};
    const auto jobs = expand(spec);
    ASSERT_EQ(jobs.size(), 2u) << proto;
    const bool stalls = protocol(proto).policy.sched_may_stall;
    EXPECT_EQ(jobs[0].allow_stall, stalls) << proto;
    EXPECT_EQ(jobs[1].allow_stall, stalls) << proto;
  }
  // An adversary that is neither named nor a schedule still errors.
  SweepSpec bad;
  bad.protocol = "linear";
  bad.adversaries = {"sched-typo"};
  EXPECT_THROW(expand(bad), CheckError);
}

TEST(SweepExpand, PayloadAxisMapsToValueBitsForRawRowsOnly) {
  // Non-ext protocols carry the payload inline: value_bits becomes 8L.
  SweepSpec raw;
  raw.protocol = "dolev-strong";
  raw.ns = {8};
  raw.fs = {2};
  raw.payloads = {512, 4096};
  const auto raw_jobs = expand(raw);
  ASSERT_EQ(raw_jobs.size(), 2u);
  EXPECT_EQ(raw_jobs[0].label, "dolev-strong/none/n8/p512");
  EXPECT_EQ(raw_jobs[1].label, "dolev-strong/none/n8/p4096");
  EXPECT_EQ(raw_jobs[0].params.payload_bytes, 512u);
  EXPECT_EQ(raw_jobs[0].params.value_bits, 8u * 512u);
  EXPECT_EQ(raw_jobs[1].params.value_bits, 8u * 4096u);

  // ext:* rows erasure-code the payload; the base phase stays at the
  // spec's value_bits (kappa-sized digests), only payload_bytes moves.
  SweepSpec ext;
  ext.protocol = "ext:dolev-strong";
  ext.ns = {8};
  ext.fs = {2};
  ext.payloads = {4096};
  const auto ext_jobs = expand(ext);
  ASSERT_EQ(ext_jobs.size(), 1u);
  // Single payload value: no /p label component.
  EXPECT_EQ(ext_jobs[0].label, "ext:dolev-strong/none/n8");
  EXPECT_EQ(ext_jobs[0].params.payload_bytes, 4096u);
  EXPECT_EQ(ext_jobs[0].params.value_bits, kDefaultValueBits);

  // 8 * payload must fit value_bits for raw rows; ext rows have no cap.
  SweepSpec huge;
  huge.protocol = "dolev-strong";
  huge.ns = {8};
  huge.fs = {2};
  huge.payloads = {0x20000000ULL};
  EXPECT_THROW(expand(huge), CheckError);
  huge.protocol = "ext:dolev-strong";
  EXPECT_NO_THROW(expand(huge));
}

TEST(SweepExpand, PayloadSitsBetweenSlotsAndAdversaryInTheOrder) {
  SweepSpec spec;
  spec.name = "px";
  spec.protocol = "dolev-strong";
  spec.ns = {8};
  spec.fs = {1};
  spec.payloads = {64, 128};
  spec.adversaries = {"none", "silent"};
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 4u);
  // Adversary varies fastest, payload slower (documented stable order).
  EXPECT_EQ(jobs[0].label, "px/none/n8/p64");
  EXPECT_EQ(jobs[1].label, "px/silent/n8/p64");
  EXPECT_EQ(jobs[2].label, "px/none/n8/p128");
  EXPECT_EQ(jobs[3].label, "px/silent/n8/p128");
}

TEST(SweepExpand, FMaxUsesTheRegistryBound) {
  SweepSpec spec;
  spec.protocol = "phase-king";
  spec.ns = {10, 16};
  spec.f_max = true;
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].params.f, (10u - 1) / 3);
  EXPECT_EQ(jobs[1].params.f, (16u - 1) / 3);
}

TEST(SweepExpand, SlotsPerNScalesWithN) {
  SweepSpec spec;
  spec.protocol = "linear";
  spec.ns = {10, 20};
  spec.slots_per_n = 3;
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].params.slots, Slot{30});
  EXPECT_EQ(jobs[1].params.slots, Slot{60});
}

TEST(SweepExpand, SlotsPerNOverflowIsRejected) {
  // 2^30 * 4 wrapped to a 0-slot run that reported ok.
  const auto specs = parse_spec(
      "sweep big\nprotocol quadratic\nn 4\nf 1\nslots-per-n 1073741824\n");
  ASSERT_EQ(specs.size(), 1u);
  try {
    expand(specs[0]);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep 'big'"), std::string::npos) << what;
    EXPECT_NE(what.find("slots-per-n 1073741824"), std::string::npos)
        << what;
    EXPECT_NE(what.find("n=4"), std::string::npos) << what;
  }
  // The largest representable product still expands.
  SweepSpec edge;
  edge.protocol = "quadratic";
  edge.ns = {3};
  edge.fs = {1};
  edge.slots_per_n = 1431655765u;  // 3 * this = 2^32 - 1
  const auto jobs = expand(edge);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].params.slots, Slot{4294967295u});
}

TEST(SweepExpand, AllowStallComesFromRegistryLivenessFailures) {
  SweepSpec spec;
  spec.protocol = "hotstuff";
  spec.ns = {7};
  spec.fs = {2};
  spec.adversaries = {"none", "selective"};
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_FALSE(jobs[0].allow_stall);  // none
  EXPECT_TRUE(jobs[1].allow_stall);   // selective: known stall
}

TEST(SweepExpand, ValidationErrors) {
  SweepSpec spec;
  spec.protocol = "no-such-protocol";
  EXPECT_THROW(expand(spec), CheckError);

  spec.protocol = "phase-king";
  spec.adversaries = {"mixed"};  // a linear-family spec, not phase-king's
  EXPECT_THROW(expand(spec), CheckError);

  spec.adversaries = {"none"};
  spec.ns = {8};
  spec.fs = {8};  // f >= n
  EXPECT_THROW(expand(spec), CheckError);

  spec.fs = {2};
  spec.seed_begin = 5;
  spec.seed_end = 4;  // backwards range
  EXPECT_THROW(expand(spec), CheckError);

  spec.seed_end = 5;
  spec.repetitions = 0;
  EXPECT_THROW(expand(spec), CheckError);

  spec.repetitions = 1;
  EXPECT_NO_THROW(expand(spec));
  spec.slots_list = {4, 0};  // a 0-slot cell would pass every oracle empty
  EXPECT_THROW(expand(spec), CheckError);
}

TEST(SweepExpand, ExpandAllConcatenatesInSpecOrder) {
  SweepSpec a;
  a.name = "a";
  a.protocol = "phase-king";
  SweepSpec b;
  b.name = "b";
  b.protocol = "dolev-strong";
  b.ns = {8};
  b.fs = {1};
  const auto jobs = expand_all({a, b});
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].label, "a/none/n16");
  EXPECT_EQ(jobs[1].label, "b/none/n8");
}

TEST(SweepFilter, SubstringOnLabelsEmptyKeepsAll) {
  SweepSpec spec;
  spec.name = "flt";
  spec.protocol = "dolev-strong";
  spec.ns = {8, 12};
  spec.fs = {1};
  spec.adversaries = {"none", "stagger"};
  auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 4u);

  const auto stagger = filter_jobs(jobs, "stagger");
  ASSERT_EQ(stagger.size(), 2u);
  EXPECT_EQ(stagger[0].label, "flt/stagger/n8");
  EXPECT_EQ(stagger[1].label, "flt/stagger/n12");

  EXPECT_EQ(filter_jobs(jobs, "n12").size(), 2u);
  EXPECT_EQ(filter_jobs(jobs, "").size(), 4u);
  EXPECT_TRUE(filter_jobs(jobs, "no-match").empty());
}

TEST(SweepFilter, PatternIsAnEcmaScriptRegexSearch) {
  SweepSpec spec;
  spec.name = "flt";
  spec.protocol = "dolev-strong";
  spec.ns = {8, 12, 18};
  spec.fs = {1};
  spec.adversaries = {"none", "stagger"};
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 6u);

  const auto ends = filter_jobs(jobs, "/n(8|18)$");
  ASSERT_EQ(ends.size(), 4u);
  EXPECT_EQ(ends[0].label, "flt/none/n8");
  EXPECT_EQ(ends[3].label, "flt/stagger/n18");
  EXPECT_EQ(filter_jobs(jobs, "^flt/stagger/n1").size(), 2u);
  EXPECT_TRUE(filter_jobs(jobs, "^stagger").empty());  // anchored
}

TEST(SweepFilter, InvalidRegexThrowsNamingThePattern) {
  SweepSpec spec;
  spec.protocol = "phase-king";
  try {
    filter_jobs(expand(spec), "n(1");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--filter 'n(1' is not a valid regex"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(label_filter("[a-"), CheckError);
}

TEST(SweepMetric, WindowsAndExpansion) {
  EXPECT_EQ(metric_from("amortized", 24, 72), 0u);
  EXPECT_EQ(metric_from("tail 4", 24, 72), 4u);
  EXPECT_EQ(metric_from("tail 2n", 24, 72), 48u);
  EXPECT_EQ(metric_from("tail L/2", 24, 72), 36u);
  for (const char* bad : {"tail 0", "tail xn", "tail L/3", "tail", "tail n",
                          "tail 0n", "median", "tail 4 5", "tail -1"}) {
    EXPECT_FALSE(metric_from(bad, 24, 72)) << bad;
  }

  const auto specs = parse_spec(
      "sweep m\nprotocol quadratic\nn 4 6\nf 1\nslots-per-n 3\n"
      "metric tail 2n\nexpect slope 1 2.5\n");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].metric, "tail 2n");
  ASSERT_TRUE(specs[0].expect_slope);
  EXPECT_EQ((*specs[0].expect_slope)[1], 2.5);
  const auto jobs = expand_all(specs);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[1].metric.name, "tail 2n");
  EXPECT_EQ(jobs[1].metric.from, Slot{12});
  EXPECT_EQ(to_engine_jobs(jobs)[1].metric.from, Slot{12});

  const auto checks = slope_checks(specs, filter_jobs(jobs, "n6"));
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_EQ(checks[0].name, "m");
  EXPECT_EQ(checks[0].runs, std::vector<std::size_t>{0});
  EXPECT_EQ(checks[0].hi, 2.5);

  // A window that leaves no slot to average fails at expansion.
  SweepSpec spec = specs[0];
  spec.metric = "tail 3n";
  EXPECT_THROW(expand(spec), CheckError);
}

TEST(SweepSpecFiles, EveryCheckedInSpecParsesAndExpands) {
  // Blocks / jobs per tools/specs/*.spec; a new spec file must be added.
  const std::map<std::string, std::pair<std::size_t, std::size_t>> want = {
      {"f2_scaling.spec", {5, 23}},      {"table1.spec", {6, 12}},
      {"f3_adversaries.spec", {1, 7}},   {"f4_hotstuff.spec", {2, 2}},
      {"f5_trustcast.spec", {1, 10}},    {"a1_ablation.spec", {4, 24}},
      {"payload_scaling.spec", {4, 16}}, {"worst_sched.spec", {7, 14}}};
  std::size_t seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(AMBB_SPECS_DIR)) {
    const std::string file = entry.path().filename().string();
    ASSERT_TRUE(want.count(file)) << "no expected counts for " << file;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    const auto specs = parse_spec(ss.str());
    EXPECT_EQ(specs.size(), want.at(file).first) << file;
    EXPECT_EQ(expand_all(specs).size(), want.at(file).second) << file;
    ++seen;
  }
  EXPECT_EQ(seen, want.size());
}

TEST(SweepToEngineJob, ClosureRunsTheRegistryDriverWithTheCellParams) {
  SweepSpec spec;
  spec.protocol = "phase-king";
  spec.ns = {10};
  spec.fs = {3};
  spec.slots_list = {4};
  spec.seed_begin = spec.seed_end = 41;
  const auto sjs = expand(spec);
  ASSERT_EQ(sjs.size(), 1u);

  const Job job = to_engine_jobs(sjs)[0];
  EXPECT_EQ(job.label, sjs[0].label);
  const RunResult r = job.run();
  EXPECT_EQ(r.n, 10u);
  EXPECT_EQ(r.f, 3u);
  EXPECT_EQ(r.slots, Slot{4});
  EXPECT_EQ(check_all(r), std::vector<std::string>{});
}

TEST(SpecParser, ParsesBlocksCommentsAndAllKeys) {
  const std::string text = R"(# leading comment
sweep alg4
protocol linear
n 24 32          # trailing comment
f-frac 0.3
slots-per-n 3
adversary mixed none
seeds 7 9
reps 2
eps 0.2
kappa 512
value-bits 128

sweep kings
protocol phase-king
n 10
f max
slots 4 6
)";
  const auto specs = parse_spec(text);
  ASSERT_EQ(specs.size(), 2u);

  const SweepSpec& s0 = specs[0];
  EXPECT_EQ(s0.name, "alg4");
  EXPECT_EQ(s0.protocol, "linear");
  EXPECT_EQ(s0.ns, (std::vector<std::uint32_t>{24, 32}));
  // "f-frac 0.3" parses into the EXACT rational 3/10 (the double member
  // stays unset: it is only the programmatic fallback).
  EXPECT_EQ(s0.f_frac_num, 3u);
  EXPECT_EQ(s0.f_frac_den, 10u);
  EXPECT_LT(s0.f_frac, 0.0);
  EXPECT_EQ(s0.slots_per_n, 3u);
  EXPECT_EQ(s0.adversaries, (std::vector<std::string>{"mixed", "none"}));
  EXPECT_EQ(s0.seed_begin, 7u);
  EXPECT_EQ(s0.seed_end, 9u);
  EXPECT_EQ(s0.repetitions, 2u);
  EXPECT_DOUBLE_EQ(s0.eps, 0.2);
  EXPECT_EQ(s0.kappa_bits, 512u);
  EXPECT_EQ(s0.value_bits, 128u);

  const SweepSpec& s1 = specs[1];
  EXPECT_EQ(s1.name, "kings");
  EXPECT_TRUE(s1.f_max);
  EXPECT_EQ(s1.slots_list, (std::vector<Slot>{4, 6}));
  // Unset keys keep their defaults in the second block.
  EXPECT_EQ(s1.adversaries, std::vector<std::string>{"none"});
  EXPECT_EQ(s1.repetitions, 1u);

  // End-to-end expansion: 2n * 2adv * 3seeds * 2reps + 1n * 2slots.
  EXPECT_EQ(expand_all(specs).size(), 24u + 2u);
}

TEST(SpecParser, ErrorsCarryTheOffendingLine) {
  auto expect_parse_error = [](const std::string& text,
                               const std::string& needle) {
    try {
      parse_spec(text);
      FAIL() << "expected CheckError for:\n" << text;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  expect_parse_error("protocol linear\n", "key before any 'sweep'");
  expect_parse_error("sweep x\nfrobnicate 3\n", "unknown key 'frobnicate'");
  expect_parse_error("sweep x\nprotocol linear\nn\n", "needs a value");
  expect_parse_error("sweep x\nprotocol linear\nn twelve\n", "line 3");
  expect_parse_error("sweep x\nprotocol linear\nseeds 4\n",
                     "'seeds' needs begin end");
  expect_parse_error("sweep one two\n", "'sweep' needs one name");
  // Every diagnostic names the offending line, including block-level
  // errors reported after the parse loop: the no-protocol message points
  // at the block's own 'sweep' line, not the end of the file.
  expect_parse_error("sweep x\nn 8\n", "has no 'protocol' key");
  expect_parse_error("sweep x\nn 8\n", "spec line 1");
  expect_parse_error("sweep ok\nprotocol linear\n\nsweep bad\nn 8\n",
                     "spec line 4");
  expect_parse_error("sweep x\nprotocol linear\n\n\npayload 0\n",
                     "spec line 5");
  expect_parse_error("sweep x\nprotocol linear\npayload 4096 huge\n",
                     "spec line 3");
  // A 0-slot cell runs no rounds and would report a passing nan row.
  expect_parse_error("sweep x\nprotocol quadratic\nn 4\nf 1\nslots 0\n",
                     "spec line 5: slots must be >= 1");
  expect_parse_error("sweep x\nprotocol quadratic\nslots 8 0\n",
                     "spec line 3: slots must be >= 1");
  expect_parse_error("sweep x\nprotocol quadratic\n\nslots-per-n 0\n",
                     "spec line 4: slots-per-n must be >= 1");
  // A second token on a single-value key was silently dropped: this
  // expanded to linear-only jobs.
  expect_parse_error("sweep x\nprotocol linear dolev-strong\n",
                     "spec line 2: 'protocol' takes one value, got 2");
  const char* const single[] = {"f-frac 0.3 0.4", "slots-per-n 3 4",
                                "reps 2 3",       "eps 0.1 0.2",
                                "kappa 256 128",  "value-bits 64 32"};
  for (const char* line : single) {
    const std::string key(line, std::string(line).find(' '));
    expect_parse_error(std::string("sweep x\nprotocol linear\nn 8\n") +
                           line + "\n",
                       "spec line 4: '" + key + "' takes one value, got 2");
  }
  expect_parse_error("sweep x\nprotocol linear\nf max 3\n",
                     "spec line 3: 'f max' takes no further value");

  // The cost metric and its slope check.
  const std::string head = "sweep x\nprotocol linear\nn 8 16\n";
  for (const char* metric :
       {"median", "tail 0", "tail xn", "tail L/3", "tail 4 5"}) {
    expect_parse_error(head + "metric " + metric + "\n",
                       std::string("spec line 4: bad metric '") + metric);
  }
  expect_parse_error(head + "metric amortized\nexpect slope 2 1\n",
                     "spec line 5: slope range 2 > 1");
  expect_parse_error(head + "metric amortized\nexpect slope 1 2 3\n",
                     "spec line 5: 'expect' takes 'slope LO HI'");
  expect_parse_error(head + "metric amortized\nexpect slop 1 2\n",
                     "spec line 5: 'expect' takes 'slope LO HI'");
  expect_parse_error(head + "expect slope 1 2\n",
                     "spec line 4: 'expect slope' needs a 'metric' key");
  const char* const axes[][2] = {{"f 2 3", "f"},
                                 {"slots 4 8", "slots"},
                                 {"adversary none mixed", "adversary"},
                                 {"payload 64 128", "payload"},
                                 {"net lockstep async", "net"},
                                 {"seeds 1 2", "seeds"},
                                 {"reps 2", "reps"}};
  for (const auto& [line, axis] : axes) {
    expect_parse_error(head + "metric amortized\nexpect slope 1 2\n" +
                           line + "\n",
                       std::string("spec line 5: 'expect slope' fits against "
                                   "n, but '") +
                           axis + "' has more than one value");
  }
}

TEST(SpecParser, PayloadKeyParsesAList) {
  const auto specs = parse_spec(
      "sweep p\nprotocol ext:linear\nn 8\nf 2\npayload 512 4096 32768\n");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].payloads,
            (std::vector<std::uint64_t>{512, 4096, 32768}));
  const auto jobs = expand_all(specs);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].label, "p/none/n8/p512");
  EXPECT_EQ(jobs[2].params.payload_bytes, 32768u);
}

TEST(SpecParser, PayloadScalingSpecFileRoundTrips) {
  // The checked-in crossover spec (tools/specs/payload_scaling.spec) must
  // keep parsing and expanding: 4 blocks x 4 payloads, ext rows paired
  // with raw baselines whose value_bits carry the payload inline.
  std::ifstream in(std::string(AMBB_SPECS_DIR) + "/payload_scaling.spec");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();

  const auto specs = parse_spec(ss.str());
  ASSERT_EQ(specs.size(), 4u);
  const auto jobs = expand_all(specs);
  ASSERT_EQ(jobs.size(), 16u);
  for (const auto& j : jobs) {
    EXPECT_GE(j.params.payload_bytes, 512u) << j.label;
    EXPECT_NE(j.label.find("/p"), std::string::npos) << j.label;
    const bool is_ext = j.protocol.rfind("ext:", 0) == 0;
    if (is_ext) {
      EXPECT_EQ(j.params.value_bits, kDefaultValueBits) << j.label;
    } else {
      EXPECT_EQ(j.params.value_bits, 8u * j.params.payload_bytes) << j.label;
    }
  }
}

}  // namespace
}  // namespace ambb::engine
