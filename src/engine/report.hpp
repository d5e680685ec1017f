// Campaign reporting shared by ambb_sweep, ambb_fuzz and the bench
// binaries: report_campaign() turns engine outcomes into one status
// table, the failure and relaxed-oracle lines, BENCH_<name>.json (one
// RunRecord per checked execution) and the process exit code.
//
// Schema history:
//   v1  (PR 1)  — {bench, violations, runs[]}; serial execution only.
//   v2  (engine) — adds top-level schema_version, threads (worker-pool
//       size used to produce the file), wall_ms_total (harness
//       wall-clock), and a per-run "error" field for jobs captured by
//       the engine's failure isolation. Parallel and serial producers
//       are thereby distinguishable in the perf trajectory; all v1
//       fields are unchanged and remain byte-identical for --jobs 1 vs
//       --jobs N (wall-clock fields excepted — they are measurements).
//       Per-run "activations" (actor calls, DESIGN.md §17) sits beside
//       the ns_* timers as metadata: it is deterministic, but a pure
//       scheduling change may move it, so it is not a measurement field.
//   v3  — per-run "per_kind_bits" (honest bits by message kind, keyed in
//       the family's kind order) on every row, plus "metric" and
//       "metric_bits_per_slot" on rows of a sweep block with a metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "sim/stats.hpp"

namespace ambb::engine {

inline constexpr int kBenchSchemaVersion = 3;

/// One checked execution, as written to BENCH_<name>.json.
struct RunRecord {
  std::string label;
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  Slot slots = 0;
  Round rounds = 0;
  std::uint64_t honest_bits = 0;
  std::uint64_t adversary_bits = 0;
  double amortized = 0.0;
  std::string metric;  ///< CostMetric name; empty = none
  double metric_bits = 0.0;
  std::vector<std::string> kind_names;
  std::vector<std::uint64_t> per_kind_bits;
  double wall_ms = 0.0;
  RoundStatsSummary stats;
  std::size_t violations = 0;
  std::string error;  ///< non-empty iff the job threw instead of finishing
};

/// A sweep block's "expect slope LO HI": the log-log slope of its runs'
/// metric against n must lie in [lo, hi].
struct SlopeCheck {
  std::string name;
  std::vector<std::size_t> runs;  ///< indices into the campaign's outcomes
  double lo = 0.0;
  double hi = 0.0;
};

/// RunRecord for an engine outcome (violations counted, result folded in).
RunRecord to_record(const JobOutcome& outcome);

/// Serialize records to the v3 BENCH json. `threads` is the worker-pool
/// size that produced the records; `wall_ms_total` the harness wall-clock.
std::string render_bench_json(const std::string& bench_name,
                              const std::vector<RunRecord>& records,
                              std::size_t total_violations, unsigned threads,
                              double wall_ms_total);

/// The one end of every campaign. Prints, in submission order, a status
/// table (ok / VIOLATION / FAILED, or the relaxed oracles that fired), a
/// "!!" line per failed job or violated run and a ".." line per relaxed
/// oracle that fired; then, if any relaxed oracle fired or any delivery
/// was deferred, one relaxed-oracle summary. Writes BENCH_<name>.json to
/// the working directory.
///
/// AMBB_BENCH_INJECT_VIOLATION (any value) adds one synthetic violation
/// to every run, to prove the non-zero-exit plumbing. `extra_violations`
/// counts failed checks made outside the engine (bench_f6_expander's
/// expansion checks) into the json and the exit code, and so does each
/// of `slopes` whose fit falls outside its range. A check left with
/// fewer than two distinct n (a --filter) prints "skipped" instead.
///
/// Returns the exit code: 2 if the json could not be written, else 1 if
/// any job failed or any violation was counted, else 0.
int report_campaign(const std::string& name,
                    const std::vector<JobOutcome>& outcomes, unsigned threads,
                    double wall_ms_total, std::size_t extra_violations = 0,
                    const std::vector<SlopeCheck>& slopes = {});

/// ambb_sweep's and ambb_fuzz's whole run: `jobs` on an Engine(workers),
/// announced as "<tool>: N jobs on T worker threads", timed, and ended in
/// report_campaign(name, ..., slopes), whose exit code it returns.
int run_campaign(const char* tool, const std::string& name,
                 const std::vector<Job>& jobs, unsigned workers,
                 const std::vector<SlopeCheck>& slopes = {});

}  // namespace ambb::engine
