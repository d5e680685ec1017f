// Shared helpers for the experiments that do not fit the sweep grammar
// (F1's prefix averages of one long run, F6's expander construction and
// payload crossover — DESIGN.md's experiment index); every other paper
// artifact is a tools/specs/*.spec grid run by ambb_sweep.
// Wall-clock performance is measured by perfbench/, not here.
//
// Job execution is delegated to the experiment engine (src/engine/):
// each bench expands its grid into independent engine jobs, runs them on
// a fixed worker pool (AMBB_BENCH_JOBS=N; default one worker per
// hardware thread) and consumes the results in submission order. The
// engine's determinism contract makes the printed tables and the
// BENCH_<name>.json measurement fields byte-identical for any job count
// (wall-clock metadata excepted).
//
// Every measured execution is property-checked by the engine, so printed
// numbers always come from correct executions. A bench ends in
// engine::report_campaign, as ambb_sweep and ambb_fuzz do: one status
// table, BENCH_<name>.json, and a non-zero exit on any violation or
// failed job (AMBB_BENCH_INJECT_VIOLATION=1 proves that plumbing).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "runner/registry.hpp"
#include "runner/result.hpp"
#include "runner/table.hpp"

namespace ambb::bench {

using engine::Job;
using engine::registry_job;

inline void print_header(const char* experiment, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

struct BenchState {
  std::vector<engine::JobOutcome> outcomes;
  /// Failed checks made outside the engine (expander quality, the
  /// payload crossover); they fail the bench like a violation.
  std::size_t failed_checks = 0;
  unsigned jobs = 0;  ///< AMBB_BENCH_JOBS (0 = one per hardware thread)
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
};

inline BenchState& state() {
  static BenchState s;
  return s;
}

/// Execute a batch of jobs through the engine and return their results
/// in submission order. Failed jobs yield a default-constructed
/// RunResult and are reported as failure rows (non-zero exit).
inline std::vector<RunResult> run_jobs(const std::vector<Job>& jobs) {
  const engine::Engine eng(state().jobs);
  std::vector<RunResult> results;
  results.reserve(jobs.size());
  for (engine::JobOutcome& out : eng.run(jobs)) {
    results.push_back(out.result);
    state().outcomes.push_back(std::move(out));
  }
  return results;
}

/// A bench's whole main(): it takes no arguments (a usage line and exit 2
/// otherwise), reads AMBB_BENCH_JOBS (digits only; exit 2 otherwise),
/// runs `body` and returns report_campaign's exit code.
inline int bench_main(int argc, char** argv, const char* name,
                      void (*body)()) {
  if (argc > 1) {
    std::fprintf(stderr,
                 "usage: %s   (no arguments; AMBB_BENCH_JOBS=N sets the "
                 "worker count)\n",
                 argv[0]);
    return 2;
  }
  BenchState& st = state();
  if (const char* e = std::getenv("AMBB_BENCH_JOBS")) {
    std::uint32_t jobs = 0;
    if (!cli::parse_u32(e, &jobs)) {
      std::fprintf(stderr, "AMBB_BENCH_JOBS expects a number, got '%s'\n", e);
      return 2;
    }
    st.jobs = jobs;
  }
  body();
  std::printf("\n");
  const double wall_ms_total =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - st.start)
          .count();
  // run_jobs and engine::parallel_map both size their pool by st.jobs.
  return engine::report_campaign(name, st.outcomes,
                                 engine::resolve_jobs(st.jobs), wall_ms_total,
                                 st.failed_checks);
}

}  // namespace ambb::bench
