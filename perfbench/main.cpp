// perfbench — the repo benchmark (see README.md in this directory).
//
// One process measures one workload. It sets up a few times (input
// generation, registry lookup, one untimed warm-up run), then runs
// checked multi-shot executions for --seconds: every repetition is one
// ProtocolInfo::run plus its Definition-2 check through engine::Engine,
// serial (engine jobs = 1, node_jobs = 1). With --trace 1 it then re-runs
// the first repetitions' seeds under a SpanSink and times the kernels.
// Before each set-up and each timed repetition it times a fixed host
// probe (host_probe.hpp), which the timed end-to-end metrics are
// corrected by.
//
// The library is driven only through its public entry points; per-layer
// numbers come from timing those calls and from the counters the library
// already returns (RunResult, RoundStats, DigestCache::stats()).
//
// Output: progress on stderr, then ONE JSON line on stdout holding every
// metric, the run tally, the provenance block and any errors. run.py
// turns it into the benchmark's result line.
#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "crypto/intern.hpp"
#include "engine/engine.hpp"
#include "engine/sweep.hpp"
#include "host_probe.hpp"
#include "kernels.hpp"
#include "runner/registry.hpp"
#include "span_sink.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  const char* protocol;
  const char* adversary;
  std::uint32_t n;
  std::uint32_t f;
  ambb::Slot slots;
  double eps;
  std::uint64_t payload_bytes;
  const char* net;
};

// Why each workload exists, and which layer it isolates: README.md.
constexpr Workload kWorkloads[] = {
    {"alg4_n128", "linear", "mixed", 128, 38, 384, 0.2, 0, "lockstep"},
    {"alg52_n48", "quadratic", "silent", 48, 24, 144, 0.1, 0, "lockstep"},
    {"ext_p256k", "ext:linear", "none", 16, 4, 4, 0.1, 262144, "lockstep"},
    {"alg4_bounded_n64", "linear", "mixed", 64, 19, 192, 0.2, 0,
     "bounded:2"},
};

// The alg4_n128 run at this seed must reproduce the alg4/mixed/n128 row
// of the committed BENCH_f2_scaling.json (run.py compares the two).
constexpr std::uint64_t kReferenceSeed = 7;
constexpr const char* kReferenceWorkload = "alg4_n128";

constexpr int kSetupReps = 7;    // set-up repetitions; setup_s is their median
// At least this many timed repetitions run; honest_bits_per_slot is the
// mean over exactly these, so it does not depend on speed.
constexpr int kMinTimedReps = 5;
constexpr int kMaxTimedReps = 10000;
constexpr int kTracedReps = 3;   // traced re-runs of the first timed seeds
constexpr double kKernelBudgetMs = 60;

/// Independent seed streams derived from the one --seed argument.
enum class Stream : std::uint64_t { kSetup = 1, kTimed = 2, kKernels = 3 };

std::uint64_t derive_seed(std::uint64_t base, Stream s, std::uint64_t i) {
  std::uint64_t x = base ^ (static_cast<std::uint64_t>(s) << 48) ^
                    (i * 0x9E3779B97F4A7C15ULL);
  ambb::splitmix64(x);
  return 1 + ambb::splitmix64(x) % 1000000000ULL;
}

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// One checked execution: a registry run plus its Definition-2 oracles.
struct RunRecord {
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;  ///< exception text or first oracle violation
  double wall_ms = 0; ///< Engine::run: the run plus its check
  double run_ms = 0;  ///< JobOutcome::wall_ms: the run alone
  double probe_ms = 0;  ///< host_probe_ms() just before this run
  ambb::RoundStatsSummary sum;
  std::uint64_t honest_bits = 0;
  std::uint64_t honest_msgs = 0;
  double bits_per_slot = 0;
  std::uint64_t rounds = 0;
  std::size_t round_stats = 0;  ///< RunResult::round_stats.size()
  std::vector<std::string> kind_names;
  std::vector<std::uint64_t> kind_bits;
  ambb::DigestCache::Stats cache;  ///< DigestCache::local() delta
};

/// The engine job for `w` at `seed`, built through the sweep layer so the
/// oracle relaxations are exactly the ones the engine gives such a cell
/// (non-lockstep nets relax termination and validity).
ambb::engine::SweepJob sweep_job(const Workload& w, std::uint64_t seed) {
  ambb::engine::SweepSpec spec;
  spec.name = w.name;
  spec.protocol = w.protocol;
  spec.ns = {w.n};
  spec.fs = {w.f};
  spec.slots_list = {w.slots};
  spec.adversaries = {w.adversary};
  spec.seed_begin = spec.seed_end = seed;
  spec.eps = w.eps;
  if (w.payload_bytes != 0) spec.payloads = {w.payload_bytes};
  spec.nets = {w.net};
  std::vector<ambb::engine::SweepJob> jobs = ambb::engine::expand(spec);
  AMBB_CHECK(jobs.size() == 1);
  return jobs.front();
}

/// Build and run one checked execution. Building the job (input
/// generation, registry lookup) is outside the timed interval. A bad
/// input, a throwing run or a failed oracle yields ok == false.
RunRecord run_checked(const Workload& w, std::uint64_t seed,
                      ambb::trace::TraceSink* sink = nullptr,
                      JobStamps* stamps = nullptr) {
  RunRecord rec;
  rec.seed = seed;
  try {
    const ambb::engine::SweepJob sj = sweep_job(w, seed);
    const ambb::ProtocolInfo& info = ambb::protocol(sj.protocol);
    const ambb::RunRequest request{sj.params, sink};
    const std::vector<ambb::engine::Job> jobs{ambb::engine::Job{
        sj.label,
        [&info, &request, stamps] {
          if (stamps != nullptr) stamps->run_start = now_ns();
          ambb::RunResult r = info.run(request);
          if (stamps != nullptr) stamps->run_end = now_ns();
          return r;
        },
        sj.allow_stall, sj.allow_invalid, sj.allow_split}};
    const ambb::engine::Engine engine(1);
    const ambb::DigestCache::Stats before = ambb::DigestCache::local().stats();
    const auto t0 = Clock::now();
    const std::vector<ambb::engine::JobOutcome> outs = engine.run(jobs);
    const auto t1 = Clock::now();
    const ambb::DigestCache::Stats after = ambb::DigestCache::local().stats();
    if (stamps != nullptr) {
      stamps->job_start = to_ns(t0);
      stamps->job_end = to_ns(t1);
    }
    const ambb::engine::JobOutcome& out = outs.front();
    rec.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    rec.run_ms = out.wall_ms;
    rec.cache = {after.hits - before.hits, after.misses - before.misses,
                 after.evictions - before.evictions};
    if (!out.completed) {
      rec.error = out.error;
      return rec;
    }
    if (!out.violations.empty()) {
      rec.error = "oracle: " + out.violations.front();
      return rec;
    }
    const ambb::RunResult& r = out.result;
    rec.ok = true;
    rec.sum = r.stats_summary();
    rec.honest_bits = r.honest_bits;
    rec.honest_msgs = r.honest_msgs;
    rec.bits_per_slot = r.amortized();
    rec.rounds = r.rounds;
    rec.round_stats = r.round_stats.size();
    rec.kind_names = r.kind_names;
    rec.kind_bits = r.per_kind_bits;
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  return rec;
}

/// Runs (and kernel timers) attempted and failed, with the first errors.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(bool ok, const std::string& what, const std::string& error) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what + ": " + error);
  }
  void add(const RunRecord& r, const char* phase) {
    add(r.ok, std::string(phase) + " seed " + std::to_string(r.seed), r.error);
  }
};

/// Reset the process's RSS high-water mark (Linux: "5" > clear_refs).
/// Where that is unsupported, VmHWM stays the process peak so far.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

/// A kB field of /proc/self/status ("VmHWM:", "VmRSS:"), in 10^6 bytes;
/// NaN if unreadable.
double status_mb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) * 1024.0 /
             1e6;
    }
  }
  return std::nan("");
}

/// The timed loop: checked runs on fresh derived seeds until `seconds`
/// have passed and at least kMinTimedReps were attempted, each preceded
/// by one host probe. Failed runs are tallied and kept (ok == false) so
/// callers can exclude them.
std::vector<RunRecord> timed_runs(const Workload& w, std::uint64_t base,
                                  double seconds, Tally& tally) {
  std::vector<RunRecord> recs;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  for (int i = 0; i < kMaxTimedReps; ++i) {
    if (i >= kMinTimedReps && Clock::now() >= deadline) break;
    const double probe = host_probe_ms();
    recs.push_back(run_checked(w, derive_seed(base, Stream::kTimed, i)));
    recs.back().probe_ms = probe;
    tally.add(recs.back(), "timed");
    std::fprintf(stderr, "  timed %d seed %llu: %s %.1f ms (probe %.1f ms)\n",
                 i, static_cast<unsigned long long>(recs.back().seed),
                 recs.back().ok ? "ok" : "FAILED", recs.back().wall_ms, probe);
  }
  return recs;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Median over the successful runs of one per-run quantity.
template <class Fn>
double med_ok(const std::vector<RunRecord>& recs, Fn&& fn) {
  std::vector<double> v;
  for (const RunRecord& r : recs) {
    if (r.ok) v.push_back(static_cast<double>(fn(r)));
  }
  return median(v);
}

/// The set-up repetitions: wall time, peak RSS of each successful warm-up
/// run, and the host probe taken before each.
struct Setup {
  std::vector<double> seconds;
  std::vector<double> rss_mb;
  std::vector<double> probe_ms;
};

/// The end-to-end metrics. slots_per_s and setup_s are scaled to the
/// reference host by the median of the probes taken in their own phase
/// (timed or set-up) ÷ kProbeNominalMs. The uncorrected values and the
/// timed phase's probe median are reported beside them as raw.* and
/// host.probe_ms.
std::vector<Metric> end_to_end(const Workload& w,
                               const std::vector<RunRecord>& timed,
                               const Setup& setup, const Tally& tally) {
  std::vector<double> bps;
  for (int i = 0; i < kMinTimedReps && i < static_cast<int>(timed.size());
       ++i) {
    if (timed[i].ok) bps.push_back(timed[i].bits_per_slot);
  }
  double mean_bps = std::nan("");
  if (!bps.empty()) {
    mean_bps = 0;
    for (double b : bps) mean_bps += b / static_cast<double>(bps.size());
  }
  const double wall_s = med_ok(timed, [](const RunRecord& r) {
                          return r.wall_ms;
                        }) / 1e3;
  const double raw_slots_per_s = static_cast<double>(w.slots) / wall_s;
  const double raw_setup_s = median(setup.seconds);
  std::vector<double> timed_probe_ms;
  for (const RunRecord& r : timed) timed_probe_ms.push_back(r.probe_ms);
  const double probe_ms = median(timed_probe_ms);
  return {
      {"slots_per_s", raw_slots_per_s * probe_ms / kProbeNominalMs, "1/s"},
      {"setup_s",
       raw_setup_s * kProbeNominalMs / median(setup.probe_ms), "s"},
      {"peak_rss_mb", median(setup.rss_mb), "MB"},
      {"honest_bits_per_slot", mean_bps, "bit"},
      {"ok_frac",
       1.0 - static_cast<double>(tally.failed) /
                 static_cast<double>(
                     std::max<std::uint64_t>(tally.attempted, 1)),
       "frac"},
      {"raw.slots_per_s", raw_slots_per_s, "1/s"},
      {"raw.setup_s", raw_setup_s, "s"},
      {"host.probe_ms", probe_ms, "ms"},
  };
}

/// Per-layer metrics read off the timed runs: medians over the successful
/// ones of RoundStats phase sums, RunResult counts and cache deltas.
std::vector<Metric> sim_layer(const Workload& w,
                              const std::vector<RunRecord>& t) {
  std::vector<Metric> out;
  auto add = [&](const char* name, const char* unit, auto per_run) {
    out.push_back({name, med_ok(t, per_run), unit});
  };
  auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  auto rounds = [](const RunRecord& r) {
    return static_cast<double>(std::max<std::uint64_t>(r.sum.rounds, 1));
  };
  using R = const RunRecord&;
  add("sim.honest_ms", "ms", [&](R r) { return ms(r.sum.ns_honest); });
  add("sim.byzantine_ms", "ms", [&](R r) { return ms(r.sum.ns_byzantine); });
  add("sim.adversary_ms", "ms", [&](R r) { return ms(r.sum.ns_adversary); });
  add("sim.accounting_ms", "ms",
      [&](R r) { return ms(r.sum.ns_accounting); });
  add("sim.delivery_ms", "ms", [&](R r) { return ms(r.sum.ns_delivery); });
  add("sim.ns_per_round", "ns", [&](R r) {
    return static_cast<double>(r.sum.ns_total()) / rounds(r);
  });
  add("sim.rounds", "count", [](R r) { return r.sum.rounds; });
  add("sim.records", "count", [](R r) { return r.sum.records; });
  add("sim.deliveries", "count", [](R r) { return r.sum.deliveries; });
  add("sim.delayed", "count", [](R r) { return r.sum.delayed; });
  add("sim.records_per_node_round", "ratio", [&](R r) {
    return static_cast<double>(r.sum.records) / (w.n * rounds(r));
  });
  add("sim.round_stats_bytes", "B",
      [](R r) { return r.round_stats * sizeof(ambb::RoundStats); });
  add("run.outside_sim_ms", "ms",
      [&](R r) { return r.run_ms - ms(r.sum.ns_total()); });
  add("runner.check_ms", "ms", [](R r) { return r.wall_ms - r.run_ms; });
  add("crypto.digest_cache.hits", "count", [](R r) { return r.cache.hits; });
  add("crypto.digest_cache.misses", "count",
      [](R r) { return r.cache.misses; });
  add("crypto.digest_cache.evictions", "count",
      [](R r) { return r.cache.evictions; });
  add("crypto.digest_cache.hit_ratio", "ratio", [](R r) {
    const double all = static_cast<double>(r.cache.hits + r.cache.misses);
    return all > 0 ? static_cast<double>(r.cache.hits) / all : 0.0;
  });
  add("bb.honest_msgs", "count", [](R r) { return r.honest_msgs; });
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Why this binary must not report timings, or "" if it may.
std::string build_refusal() {
#if !defined(__OPTIMIZE__)
  return "unoptimised (-O0) build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (flags.find("-fsanitize") != std::string::npos) return "sanitizer build";
  if (flags.find("-O0") != std::string::npos) return "-O0 build";
  return "";
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans;  ///< where the traced run's spans are written
  bool selftest = false;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      err = "missing value for " + k;
      return false;
    }
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      if (!parse_u64(v, a.seed)) err = "bad --seed";
    } else if (k == "--seconds") {
      if (!parse_u64(v, u) || u < 1 || u > 3600) err = "bad --seconds";
      a.seconds = static_cast<double>(u);
    } else if (k == "--trace") {
      if (!parse_u64(v, u) || u > 1) err = "bad --trace (0 or 1)";
      a.trace = static_cast<int>(u);
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      err = "unknown argument " + k;
    }
    if (!err.empty()) return false;
  }
  if (!a.selftest && a.workload.empty()) err = "--workload is required";
  return err.empty();
}

/// The traced re-runs: the first timed seeds again, under a SpanSink.
/// Adds the trace.* and self_ms.* metrics, checks that each traced run's
/// counts equal its untraced twin and that span self times partition
/// the job's wall time.
void traced_runs(const Workload& w, const std::vector<RunRecord>& timed,
                 const std::string& spans_path, Tally& tally,
                 std::vector<Metric>& metrics, std::ostringstream& details) {
  std::map<std::string, double> self_total;
  std::vector<double> slots;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  int runs = 0;
  std::vector<Span> last;
  for (int i = 0; i < kTracedReps && i < static_cast<int>(timed.size()); ++i) {
    const RunRecord& twin = timed[i];
    if (!twin.ok) continue;
    SpanSink sink;
    JobStamps st;
    const RunRecord rec = run_checked(w, twin.seed, &sink, &st);
    std::string error = rec.error;
    if (rec.ok && (rec.rounds != twin.rounds ||
                   rec.sum.records != twin.sum.records ||
                   rec.honest_bits != twin.honest_bits)) {
      error = "traced run differs from untraced (rounds/records/honest_bits)";
    }
    std::vector<Span> spans;
    if (error.empty()) {
      spans = build_spans(st, sink.marks());
      const std::map<std::string, double> self = self_ns(spans);
      double sum = 0;
      for (const auto& [name, ns] : self) sum += ns;
      const double job_ns = static_cast<double>(st.job_end - st.job_start);
      if (std::fabs(sum - job_ns) > 1000) {
        error = "span self times do not partition the job's wall time";
      }
      for (const auto& [name, ns] : self) self_total[name] += ns;
    }
    tally.add(error.empty(), "traced seed " + std::to_string(twin.seed), error);
    if (!error.empty()) continue;
    ++runs;
    const std::vector<double> s = slot_ms(spans);
    slots.insert(slots.end(), s.begin(), s.end());
    traced_ms.push_back(rec.wall_ms);
    untraced_ms.push_back(twin.wall_ms);
    last = std::move(spans);
    std::fprintf(stderr, "  traced seed %llu: %.1f ms, %llu events\n",
                 static_cast<unsigned long long>(twin.seed), rec.wall_ms,
                 static_cast<unsigned long long>(sink.events()));
  }
  if (!spans_path.empty() && !last.empty() && !write_spans(spans_path, last)) {
    tally.add(false, "write spans", "cannot write " + spans_path);
  }

  std::sort(slots.begin(), slots.end());
  double p50 = std::nan("");
  double tail = std::nan("");
  std::string tail_name = "none";
  if (!slots.empty()) {
    p50 = median(slots);
    // Highest percentile with at least ten slots beyond it.
    if (slots.size() >= 11) {
      const std::size_t idx = slots.size() - 11;
      tail = slots[idx];
      char buf[96];
      std::snprintf(buf, sizeof buf, "p%.1f",
                    100.0 * static_cast<double>(idx + 1) /
                        static_cast<double>(slots.size()));
      tail_name = buf;
    } else {
      tail = slots.back();
      tail_name = "max";
    }
  }
  details << "\"traced\": {\"runs\": " << runs
          << ", \"slots\": " << slots.size()
          << ", \"tail_percentile\": \"" << tail_name
          << "\", \"slots_beyond_tail\": " << (slots.size() >= 11 ? 10 : 0)
          << ", \"spans_file\": \"" << json_escape(spans_path) << "\"}";

  metrics.push_back({"trace.slot_ms.p50", p50, "ms"});
  metrics.push_back({"trace.slot_ms.tail", tail, "ms"});
  metrics.push_back(
      {"trace.slots", static_cast<double>(slots.size()), "count"});
  metrics.push_back(
      {"trace.overhead_frac", median(traced_ms) / median(untraced_ms) - 1,
       "frac"});
  std::vector<std::string> names = {"job", "run", "slot", "round"};
  names.insert(names.end(), kPhaseSpans.begin(), kPhaseSpans.end());
  names.push_back("check");
  for (const std::string& n : names) {
    metrics.push_back({"self_ms." + n,
                       runs > 0 ? self_total[n] / 1e6 / runs : std::nan(""),
                       "ms"});
  }
}

void print_report(const Args& a, const Workload& w,
                  const std::vector<Metric>& metrics, const Tally& tally,
                  const std::vector<double>& setup_s, std::size_t timed_reps,
                  const std::string& reference, const std::string& details,
                  const std::map<std::string, double>& kind_bits) {
  std::ostringstream os;
  os << "{\"workload\": \"" << w.name << "\", \"seed\": " << a.seed
     << ", \"trace\": " << a.trace << ", \"slots\": " << w.slots
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed
     << ", \"errors\": [";
  for (std::size_t i = 0; i < tally.errors.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(tally.errors[i]) << '"';
  }
  os << "], \"metrics\": [";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": \"" << metrics[i].name
       << "\", \"value\": " << json_num(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "], \"bits_by_kind\": {";
  bool first = true;
  for (const auto& [k, v] : kind_bits) {
    os << (first ? "" : ", ") << '"' << json_escape(k) << "\": " << json_num(v);
    first = false;
  }
  os << "}, \"provenance\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER) << " ("
     << json_escape(__VERSION__) << ")\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"cxx_flags\": \""
     << json_escape(PERFBENCH_CXX_FLAGS) << "\", \"base_seed\": " << a.seed
     << ", \"setup_reps\": " << setup_s.size()
     << ", \"timed_reps\": " << timed_reps
     << ", \"traced_reps\": " << (a.trace ? kTracedReps : 0)
     << ", \"engine_jobs\": 1, \"node_jobs\": 1, \"seconds\": " << a.seconds
     << ", \"workload\": {\"protocol\": \"" << w.protocol
     << "\", \"adversary\": \"" << w.adversary << "\", \"n\": " << w.n
     << ", \"f\": " << w.f << ", \"L\": " << w.slots
     << ", \"eps\": " << json_num(w.eps)
     << ", \"payload_bytes\": " << w.payload_bytes << ", \"net\": \"" << w.net
     << "\"}}";
  if (!reference.empty()) os << ", " << reference;
  if (!details.empty()) os << ", " << details;
  os << "}";
  std::cout << os.str() << std::endl;
}

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (a.workload == c.name) w = &c;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:",
                 a.workload.c_str());
    for (const Workload& c : kWorkloads) std::fprintf(stderr, " %s", c.name);
    std::fprintf(stderr, "\n");
    return 2;
  }

  // One untimed probe builds the probe's map in its arena. Both stay
  // resident, so their size is taken off every peak-RSS reading.
  const double rss_before_probe = status_mb("VmRSS:");
  host_probe_ms();
  const double probe_rss_mb = status_mb("VmRSS:") - rss_before_probe;

  Tally tally;
  Setup setup;
  for (int j = 0; j < kSetupReps; ++j) {
    setup.probe_ms.push_back(host_probe_ms());
    // Peak RSS is taken per set-up run: a fixed amount of work, so a
    // faster build that fits more timed runs into --seconds does not
    // read as a memory regression (the thread-local DigestCache keeps the
    // long keys it interns, so RSS grows with every distinct payload).
    // Free heap memory is returned first, so a run's high-water mark does
    // not depend on what earlier runs left behind.
    malloc_trim(0);
    reset_peak_rss();
    const auto t0 = Clock::now();
    const RunRecord warm =
        run_checked(*w, derive_seed(a.seed, Stream::kSetup, j));
    setup.seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (warm.ok) setup.rss_mb.push_back(status_mb("VmHWM:") - probe_rss_mb);
    tally.add(warm, "setup");
    std::fprintf(stderr, "  setup %d: %s %.3f s (probe %.1f ms)\n", j,
                 warm.ok ? "ok" : "FAILED", setup.seconds.back(),
                 setup.probe_ms.back());
  }

  std::string reference;
  if (std::string_view(w->name) == kReferenceWorkload) {
    const RunRecord ref = run_checked(*w, kReferenceSeed);
    tally.add(ref, "reference");
    reference = "\"reference\": {\"seed\": " + std::to_string(kReferenceSeed) +
                ", \"ok\": " + (ref.ok ? "true" : "false") +
                ", \"rounds\": " + std::to_string(ref.rounds) +
                ", \"records\": " + std::to_string(ref.sum.records) +
                ", \"honest_bits\": " + std::to_string(ref.honest_bits) + "}";
  }

  const std::vector<RunRecord> timed = timed_runs(*w, a.seed, a.seconds, tally);

  std::vector<Metric> metrics;
  std::ostringstream details;
  std::map<std::string, std::vector<double>> kind_runs;
  for (const RunRecord& r : timed) {
    if (!r.ok) continue;
    for (std::size_t k = 0; k < r.kind_names.size(); ++k) {
      kind_runs[r.kind_names[k]].push_back(static_cast<double>(r.kind_bits[k]));
    }
  }
  std::map<std::string, double> kind_bits;
  for (const auto& [kind, bits] : kind_runs) kind_bits[kind] = median(bits);
  // The end-to-end metrics always come from the untraced runs above;
  // --trace 1 adds the per-layer ones.
  metrics = end_to_end(*w, timed, setup, tally);
  if (a.trace == 1) {
    for (Metric& m : sim_layer(*w, timed)) metrics.push_back(std::move(m));
    traced_runs(*w, timed, a.spans, tally, metrics, details);
    for (const KernelResult& k :
         run_kernels(derive_seed(a.seed, Stream::kKernels, 0),
                     kKernelBudgetMs)) {
      tally.add(k.ok, k.name, k.error);
      metrics.push_back({k.name, k.value, k.unit});
    }
  }
  print_report(a, *w, metrics, tally, setup.seconds, timed.size(), reference,
               details.str(), kind_bits);
  return tally.failed == 0 ? 0 : 1;
}

/// Failure accounting on a bad input: f above max_f(n) must be counted
/// as failed runs, not crash the benchmark, and a good input must pass.
int selftest() {
  const ambb::ProtocolInfo& lin = ambb::protocol("linear");
  const Workload bad{"bad_f", "linear", "none", 16, lin.max_f(16) + 1, 4,
                     0.1, 0, "lockstep"};
  const Workload good{"good", "linear", "none", 16, lin.max_f(16), 4,
                      0.1, 0, "lockstep"};
  Tally bad_tally;
  const std::vector<RunRecord> b = timed_runs(bad, 1, 0, bad_tally);
  Tally good_tally;
  timed_runs(good, 1, 0, good_tally);
  const std::vector<Metric> e2e =
      end_to_end(bad, b, Setup{{0.0}, {}, {kProbeNominalMs}}, bad_tally);
  const auto ok_frac =
      std::find_if(e2e.begin(), e2e.end(),
                   [](const Metric& m) { return m.name == "ok_frac"; });
  const bool ok = bad_tally.attempted == kMinTimedReps &&
                  bad_tally.failed == bad_tally.attempted &&
                  good_tally.attempted == kMinTimedReps &&
                  good_tally.failed == 0 && ok_frac != e2e.end() &&
                  ok_frac->value == 0.0;
  std::printf("{\"selftest\": %s, \"bad\": {\"attempted\": %llu, \"failed\": "
              "%llu, \"first_error\": \"%s\"}, \"good\": {\"attempted\": "
              "%llu, \"failed\": %llu}}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(bad_tally.attempted),
              static_cast<unsigned long long>(bad_tally.failed),
              json_escape(bad_tally.errors.empty() ? "" : bad_tally.errors[0])
                  .c_str(),
              static_cast<unsigned long long>(good_tally.attempted),
              static_cast<unsigned long long>(good_tally.failed));
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s\n",
                 refusal.c_str());
    return 3;
  }
  Args args;
  std::string err;
  if (!parse_args(argc, argv, args, err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  try {
    return args.selftest ? selftest() : run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
