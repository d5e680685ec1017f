#include "engine/engine.hpp"

#include <chrono>
#include <exception>

namespace ambb::engine {

unsigned resolve_jobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

std::vector<JobOutcome> Engine::run(const std::vector<Job>& jobs) const {
  return parallel_map(jobs.size(), jobs_, [&](std::size_t i) {
    const Job& job = jobs[i];
    JobOutcome out;
    out.label = job.label;
    out.metric = job.metric;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      out.result = job.run();
      out.completed = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown exception";
    }
    const auto t1 = std::chrono::steady_clock::now();
    out.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (!out.completed) return out;
    const struct {
      Oracle oracle;
      bool relaxed;
      std::vector<std::string> (*check)(const RunResult&);
    } oracles[] = {
        {Oracle::kConsistency, job.allow_split, check_consistency},
        {Oracle::kValidity, job.allow_invalid, check_validity},
        {Oracle::kTermination, job.allow_stall, check_termination},
    };
    for (const auto& o : oracles) {
      for (std::string& what : o.check(out.result)) {
        if (o.relaxed) {
          out.relaxed.push_back(Finding{o.oracle, std::move(what)});
        } else {
          out.violations.push_back(std::move(what));
        }
      }
    }
    return out;
  });
}

}  // namespace ambb::engine
