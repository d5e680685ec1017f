// Declarative sweep specification for the experiment engine.
//
// A SweepSpec names a protocol from the runner registry plus lists of
// n / f / L / payload / net / adversary / seed values; expand() turns it
// into the full cross product of independent engine jobs in a documented,
// stable order (n, then f, then slots, then payload, then net, then
// adversary, then seed, then repetition).
// The expansion order IS the aggregation order: together with the
// engine's submission-order reporting it pins the output byte-for-byte
// independently of --jobs.
//
// Spec files (ambb_sweep --spec) are line-oriented:
//
//   # comment
//   sweep alg4                 # starts a block; the name prefixes labels
//   protocol linear            # registry name (required)
//   n 24 32 48 64              # list of n values (required)
//   f-frac 0.3                 # f = floor(0.3 * n), or:
//   f 4 6 8                    #   explicit f list, or:
//   f max                      #   registry max_f(n)
//   slots-per-n 3              # L = 3n, or: slots 8 16
//   adversary mixed none       # list; default "none"
//   seeds 7 9                  # inclusive seed range; default 1 1
//   reps 2                     # repetitions per config; default 1
//   eps 0.2                    # linear-family expander parameter
//   kappa 256                  # security parameter bits
//   value-bits 256             # input value width
//   payload 4096 65536         # payload bytes per slot (DESIGN.md §13):
//                              #   ext:* rows erasure-code the payload,
//                              #   every other row carries it inline
//                              #   (value-bits = 8 * payload)
//   net lockstep bounded:2     # network delay policies (DESIGN.md §16):
//                              #   lockstep | bounded:<delta> |
//                              #   async[:<cap>]; default lockstep.
//                              #   Non-lockstep cells relax the
//                              #   synchrony-conditional oracles
//                              #   (relaxed_oracles below)
//   metric tail 2n             # per-slot cost written beside each run:
//                              #   amortized | tail <k> | tail <k>n |
//                              #   tail L/2 = honest bits per slot over
//                              #   slots (from, L], from = 0, k, k*n, L/2
//   expect slope 0.7 1.6       # log-log slope of the metric against n
//                              #   must lie in [LO, HI], else the run
//                              #   fails; needs a metric, and nothing
//                              #   but n may take more than one value
//
// Blank lines between blocks are optional; later keys override earlier
// ones within a block. Malformed input throws CheckError with the
// offending line number.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/report.hpp"
#include "runner/registry.hpp"

namespace ambb::engine {

struct SweepSpec {
  std::string name;      ///< label prefix; defaults to the protocol name
  std::string protocol;  ///< runner-registry protocol name

  std::vector<std::uint32_t> ns = {16};
  /// Fault-load selection, exactly one of:
  std::vector<std::uint32_t> fs;  ///< explicit values (cross product with n)
  /// Exact fraction: f = floor(f_frac_num * n / f_frac_den) when den != 0.
  /// The spec-file "f-frac" key parses "p/q" and decimal literals ("0.3"
  /// = 3/10) into this form, so f never suffers binary floating-point
  /// truncation (0.3 * 10 < 3.0 in double, so the old cast gave f=2).
  std::uint64_t f_frac_num = 0;
  std::uint64_t f_frac_den = 0;
  /// Programmatic double fallback: f = floor(round(f_frac * 1e9) * n /
  /// 1e9) when >= 0, i.e. the fraction is snapped to the nearest 1e-9
  /// before the exact floor — same rule, for callers that only have a
  /// double in hand.
  double f_frac = -1.0;
  bool f_max = false;             ///< f = registry max_f(n)

  std::vector<Slot> slots_list;   ///< explicit slot counts
  std::uint32_t slots_per_n = 0;  ///< L = slots_per_n * n when nonzero

  std::vector<std::string> adversaries = {"none"};
  std::uint64_t seed_begin = 1;
  std::uint64_t seed_end = 1;  ///< inclusive
  std::uint32_t repetitions = 1;

  double eps = 0.1;
  std::uint32_t kappa_bits = kDefaultKappaBits;
  std::uint32_t value_bits = kDefaultValueBits;

  /// Payload-size axis in bytes; empty = off (kappa-sized values, the
  /// historical behaviour). For non-ext protocols a nonzero payload
  /// overrides value_bits with 8 * payload, pricing the same L-byte
  /// message carried inline — the raw baseline of the ext:* rows.
  std::vector<std::uint64_t> payloads;

  /// Network delay-policy axis (DESIGN.md §16); empty = {"lockstep"}.
  /// Each entry must parse (parse_net_policy). A cell's oracle
  /// relaxations follow from its net and adversary (relaxed_oracles).
  std::vector<std::string> nets;

  /// Cost metric ("metric" key; empty = none), as metric_from() reads it.
  std::string metric;
  /// "expect slope LO HI": bounds on the log-log slope of the metric
  /// against n (report_campaign fits and checks it).
  std::optional<std::array<double, 2>> expect_slope;
};

/// One expanded cell: everything needed to run and label it.
struct SweepJob {
  std::string label;  ///< "<name>/<adversary>/n<k>[/f..][/L..][/p..][/s..][/r..]"
  std::string protocol;
  CommonParams params;
  /// engine::Job's oracle relaxations, from relaxed_oracles().
  bool allow_stall = false;
  bool allow_invalid = false;
  bool allow_split = false;
  CostMetric metric;      ///< the spec's metric at this cell's (n, L)
  std::size_t block = 0;  ///< index of its spec in expand_all's input
};

/// The oracle-relaxation rule: which Definition-2 checks a run of `info`
/// under `adversary` and `net` may fail without failing (engine::Job's
/// allow_* flags). expand() and registry_job() — and through them
/// ambb_sweep, ambb_fuzz and the benches — take their flags from here:
///   - termination is relaxed where the registry predicts a stall under
///     `adversary`, and under every non-lockstep net (a delayed delivery
///     can push the last commits past the fixed round horizon);
///   - validity is relaxed under every non-lockstep net (a delayed honest
///     sender is indistinguishable from a silent one);
///   - consistency is relaxed under a non-lockstep net only for rows that
///     declare consistency_needs_sync, whose agreement argument is itself
///     a round deadline (the Dolev-Strong relay step, TrustCast, chunk
///     dispersal); for quorum-intersection rows it is always hard.
struct OracleRelaxation {
  bool allow_stall = false;
  bool allow_invalid = false;
  bool allow_split = false;
};
OracleRelaxation relaxed_oracles(const ProtocolInfo& info,
                                 const std::string& adversary,
                                 const std::string& net);

/// Engine job running registry protocol `proto` at `p`, with the
/// relaxed_oracles() flags for its adversary and net.
Job registry_job(const std::string& proto, const CommonParams& p,
                 std::string label);

/// Cross-product expansion in the documented stable order. Validates the
/// protocol name, the adversary names and f < n against the registry;
/// throws CheckError on invalid specs.
std::vector<SweepJob> expand(const SweepSpec& spec);

/// Expansion of several specs back to back (label order = spec order).
std::vector<SweepJob> expand_all(const std::vector<SweepSpec>& specs);

/// Start of the tail window `metric` averages over at (n, L), or nullopt
/// unless it reads amortized (0), "tail <k>" (k), "tail <k>n" (k*n) or
/// "tail L/2" (L/2), k >= 1.
std::optional<std::uint64_t> metric_from(const std::string& metric,
                                         std::uint32_t n, Slot L);

/// The --filter rule of every tool: ECMAScript regex search on a label
/// (so a plain substring keeps its meaning; empty matches everything).
/// Throws CheckError on an invalid regex.
std::function<bool(const std::string&)> label_filter(
    const std::string& pattern);

/// Keep only jobs whose label matches label_filter(pattern).
std::vector<SweepJob> filter_jobs(std::vector<SweepJob> jobs,
                                  const std::string& pattern);

/// One SlopeCheck per spec with "expect slope", over the `jobs` (indices
/// into that vector) of its block.
std::vector<SlopeCheck> slope_checks(const std::vector<SweepSpec>& specs,
                                     const std::vector<SweepJob>& jobs);

/// Trace file path for job `index` of a sweep: "<dir>/NNNN_<label>.jsonl"
/// with the submission index zero-padded and every label character
/// outside [A-Za-z0-9._-] replaced by '-'. Submission-order naming keeps
/// the directory listing aligned with the report rows regardless of
/// --jobs.
std::string trace_path(const std::string& dir, std::size_t index,
                       const std::string& label);

/// Engine jobs for expanded cells: a registry lookup plus a
/// self-contained run closure per cell (the driver constructs its own
/// Simulation / ledger / RNG from the params, so cells never share
/// simulator state). With a trace_dir, each job also writes a
/// deterministic JSONL event trace to trace_path(trace_dir, index,
/// label); each closure owns its file stream and sink, so parallel
/// workers never share a sink.
std::vector<Job> to_engine_jobs(const std::vector<SweepJob>& sjs,
                                const std::string& trace_dir = "");

/// Parse the spec-file format described in the header comment.
std::vector<SweepSpec> parse_spec(const std::string& text);

}  // namespace ambb::engine
