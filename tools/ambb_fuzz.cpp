// ambb_fuzz — randomized fault-schedule campaigns over the protocol
// registry, with the Definition 2 properties as oracles.
//
//   ambb_fuzz [--schedules K] [--protocol NAME] [--n N] [--slots L]
//             [--seed S] [--jobs N] [--net POLICY] [--out NAME]
//             [--filter REGEX] [--list]
//
//   --schedules K    schedules per protocol (default 30)
//   --protocol NAME  fuzz only this registry protocol (default: all)
//   --n N            node count (default 12)
//   --slots L        slots per run (default 2)
//   --seed S         base seed; schedule i of a protocol runs with seed
//                    S + i (default 1)
//   --jobs N         worker threads; 0 = one per hardware thread. The
//                    engine's determinism contract makes the table and
//                    the json byte-identical for any value.
//   --net POLICY     delay policy (DESIGN.md §16): lockstep (default) |
//                    bounded:<delta> | async[:<cap>]. Non-lockstep
//                    campaigns add delay/reorder timing faults to every
//                    generated schedule and relax the synchrony-
//                    conditional oracles (engine::relaxed_oracles:
//                    termination and validity everywhere, consistency
//                    only on round-deadline rows). Relaxed findings are
//                    counted and reported per run, without failing the
//                    campaign.
//   --out NAME       write BENCH_<NAME>.json (default: fuzz)
//   --filter REGEX   keep only jobs whose label matches the ECMAScript
//                    regex (engine::label_filter, as in ambb_sweep)
//   --list           print the job labels and exit
//
// Every job runs the protocol under a "fuzz" adversary: a seeded random
// budget-respecting fault schedule (src/adversary/fuzz.hpp) of
// corruptions, after-the-fact erasures and actor-level faults. Because
// generated schedules stay inside the threat model (at most f distinct
// corruptions, erasures only of corrupt-by-then senders), any
// consistency/validity/termination violation is a finding about the
// protocol or the simulator — never noise. Protocols whose registry
// entry sets sched_may_stall (no fallback path) relax only the
// termination oracle.
//
// The corruption budget f cycles over 1..max_f(n) across a protocol's
// schedules, so one campaign exercises light and maximal fault loads.
//
// The table, the json and the exit code come from engine::report_campaign
// (so AMBB_BENCH_INJECT_VIOLATION=1 proves the non-zero-exit plumbing
// here exactly as in ambb_sweep and the benches).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/check.hpp"
#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "engine/sweep.hpp"
#include "runner/registry.hpp"

namespace {

struct Cli {
  std::uint32_t schedules = 30;
  std::string protocol;  // empty = all
  std::uint32_t n = 12;
  ambb::Slot slots = 2;
  std::uint64_t seed = 1;
  ambb::cli::CommonFlags common;
  bool list = false;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ambb_fuzz [--schedules K] [--protocol NAME] [--n N] "
               "[--slots L] [--seed S] [--jobs N] [--net POLICY] "
               "[--out NAME] [--filter REGEX] [--list]\n");
}

bool parse_cli(int argc, char** argv, Cli& cli) {
  cli.common.out = "fuzz";
  ambb::cli::Parser p("ambb_fuzz", argc, argv);
  while (p.next()) {
    bool ok = true;
    if (ambb::cli::handle_common_flag(p, &cli.common, &ok)) {
      if (!ok) return false;
    } else if (p.arg() == "--schedules") {
      if (!p.to_u32(&cli.schedules)) return false;
    } else if (p.arg() == "--protocol") {
      if (!p.to_str(&cli.protocol)) return false;
    } else if (p.arg() == "--n") {
      if (!p.to_u32(&cli.n)) return false;
    } else if (p.arg() == "--slots") {
      if (!p.to_u32(&cli.slots)) return false;
    } else if (p.arg() == "--seed") {
      if (!p.to_u64(&cli.seed)) return false;
    } else if (p.arg() == "--list") {
      cli.list = true;
    } else if (p.arg() == "--help" || p.arg() == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      p.unknown();
      return false;
    }
  }
  if (cli.schedules == 0 || cli.n < 4 || cli.slots == 0) {
    std::fprintf(stderr,
                 "ambb_fuzz: need --schedules >= 1, --n >= 4, --slots >= 1\n");
    return false;
  }
  return true;
}

/// One engine job per (protocol, schedule), in registry order; the
/// oracle relaxations come from the shared rule (engine::registry_job).
std::vector<ambb::engine::Job> expand(const Cli& cli) {
  using namespace ambb;
  const bool lockstep = cli.common.net == "lockstep";
  const auto keep = engine::label_filter(cli.common.filter);
  std::vector<engine::Job> out;
  for (const auto& info : protocols()) {
    if (!cli.protocol.empty() && info.name != cli.protocol) continue;
    const std::uint32_t fmax =
        std::max<std::uint32_t>(1, std::min(info.max_f(cli.n), cli.n - 1));
    for (std::uint32_t i = 0; i < cli.schedules; ++i) {
      CommonParams p;
      p.n = cli.n;
      p.f = 1 + i % fmax;  // cycle light..maximal budgets
      p.slots = cli.slots;
      p.seed = cli.seed + i;
      p.adversary = "fuzz";
      p.net = cli.common.net;
      // Lockstep labels keep their historical shape (golden compat);
      // non-lockstep runs carry the policy so one json can mix nets.
      std::string label = "fuzz/" + info.name +
                          (lockstep ? std::string() : "/" + cli.common.net) +
                          "/f" + std::to_string(p.f) + "/s" +
                          std::to_string(p.seed);
      if (!keep(label)) continue;
      out.push_back(engine::registry_job(info.name, p, std::move(label)));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ambb;

  Cli cli;
  if (!parse_cli(argc, argv, cli)) {
    usage(stderr);
    return 2;
  }

  if (!cli.protocol.empty() &&
      ambb::cli::resolve_protocol("ambb_fuzz", cli.protocol) == nullptr) {
    return 2;
  }

  std::vector<engine::Job> jobs;
  try {
    jobs = expand(cli);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "ambb_fuzz: %s\n", e.what());
    return 2;
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "ambb_fuzz: nothing to run (filter '%s')\n",
                 cli.common.filter.c_str());
    return 2;
  }

  if (cli.list) {
    for (const auto& job : jobs) std::printf("%s\n", job.label.c_str());
    std::printf("%zu jobs\n", jobs.size());
    return 0;
  }

  return engine::run_campaign("ambb_fuzz", cli.common.out, jobs,
                              cli.common.jobs);
}
