// ambb_sweep — run declarative experiment sweeps on the parallel engine.
//
//   ambb_sweep --spec FILE [--jobs N] [--filter REGEX] [--out NAME]
//              [--net POLICY] [--trace-dir DIR] [--list]
//
//   --spec FILE      sweep specification (format: src/engine/sweep.hpp)
//   --jobs N         worker threads; 0 or omitted = one per hardware
//                    thread; 1 = serial (byte-identical results either
//                    way — that is the engine's determinism contract)
//   --filter REGEX   keep only jobs whose label matches the ECMAScript
//                    regex somewhere (a plain substring works as one)
//   --out NAME       write BENCH_<NAME>.json (default: sweep)
//   --net POLICY     delay policy for blocks without their own 'net' key
//                    (DESIGN.md §16): lockstep (default) |
//                    bounded:<delta> | async[:<cap>]
//   --trace-dir DIR  write one JSONL event trace per run into DIR
//                    (created if missing); files are named by submission
//                    order, so --jobs does not change names or contents
//   --list           print the expanded job labels and exit
//
// Per-job failure isolation: a job that throws (AMBB_CHECK) or violates
// a BB property is reported as a structured failure row — and an "error"
// field in the json — instead of killing the sweep. The table, the json
// and the exit code come from engine::report_campaign: 0 clean, 1 if any
// job failed, violated a hard oracle or missed its block's "expect
// slope", 2 on bad input or I/O failure.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/check.hpp"
#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "engine/sweep.hpp"

namespace {

struct Cli {
  std::string spec_path;
  std::string trace_dir;
  ambb::cli::CommonFlags common;
  bool list = false;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ambb_sweep --spec FILE [--jobs N] [--filter REGEX] "
               "[--out NAME] [--net POLICY] [--trace-dir DIR] [--list]\n");
}

bool parse_cli(int argc, char** argv, Cli& cli) {
  cli.common.out = "sweep";
  ambb::cli::Parser p("ambb_sweep", argc, argv);
  while (p.next()) {
    bool ok = true;
    if (ambb::cli::handle_common_flag(p, &cli.common, &ok)) {
      if (!ok) return false;
    } else if (p.arg() == "--spec") {
      if (!p.to_str(&cli.spec_path)) return false;
    } else if (p.arg() == "--trace-dir") {
      if (!p.to_str(&cli.trace_dir)) return false;
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
  if (cli.spec_path.empty()) {
    std::fprintf(stderr, "ambb_sweep: --spec is required\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ambb;

  Cli cli;
  if (!parse_cli(argc, argv, cli)) {
    usage(stderr);
    return 2;
  }

  std::ifstream in(cli.spec_path);
  if (!in) {
    std::fprintf(stderr, "ambb_sweep: cannot read spec file '%s'\n",
                 cli.spec_path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  std::vector<engine::SweepSpec> specs;
  std::vector<engine::SweepJob> sweep_jobs;
  try {
    specs = engine::parse_spec(text.str());
    // --net is the default delay policy: blocks with their own 'net' key
    // keep it, everything else inherits the flag.
    if (cli.common.net != "lockstep") {
      for (auto& s : specs) {
        if (s.nets.empty()) s.nets = {cli.common.net};
      }
    }
    sweep_jobs =
        engine::filter_jobs(engine::expand_all(specs), cli.common.filter);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "ambb_sweep: %s\n", e.what());
    return 2;
  }

  if (cli.list) {
    for (const auto& sj : sweep_jobs) std::printf("%s\n", sj.label.c_str());
    std::printf("%zu jobs\n", sweep_jobs.size());
    return 0;
  }
  if (sweep_jobs.empty()) {
    std::fprintf(stderr, "ambb_sweep: nothing to run (filter '%s')\n",
                 cli.common.filter.c_str());
    return 2;
  }

  if (!cli.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cli.trace_dir, ec);
    if (ec) {
      std::fprintf(stderr, "ambb_sweep: cannot create trace dir '%s': %s\n",
                   cli.trace_dir.c_str(), ec.message().c_str());
      return 2;
    }
    std::printf("ambb_sweep: writing %zu event traces to %s/\n",
                sweep_jobs.size(), cli.trace_dir.c_str());
  }
  return engine::run_campaign(
      "ambb_sweep", cli.common.out,
      engine::to_engine_jobs(sweep_jobs, cli.trace_dir), cli.common.jobs,
      engine::slope_checks(specs, sweep_jobs));
}
