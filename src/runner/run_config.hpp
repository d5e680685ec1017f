// The one run configuration every protocol family is driven from
// (runner/drive.hpp), plus the per-run context fields every family's
// Context shares.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hpp"
#include "common/wire.hpp"
#include "sim/commit_log.hpp"

namespace ambb {

namespace trace {
class TraceSink;
}

namespace linear {

/// Ablation switches of Algorithm 4 (DESIGN.md experiment A1 and the
/// Momose-Ren-style baseline of Table 1 rows 2-3). Only the linear family
/// reads them.
struct Options {
  /// Keep accusation state across slots (the paper's amortization). When
  /// false, all accusation knowledge resets at each slot boundary.
  bool persistent_accusations = true;
  /// Use the Query-1/2 + Respond-1/2 dissemination path.
  bool use_query_path = true;
  /// Every node multicasts the first commit-proof it receives (the
  /// always-forward dissemination of quadratic BBs). Gives O(kappa n^2)
  /// per slot regardless of the adversary.
  bool always_forward_commit_proof = false;

  static Options paper() { return {}; }
  /// Momose-Ren-style O(kappa n^2)-per-slot baseline (see DESIGN.md).
  static Options mr_baseline() { return {false, false, true}; }
  static Options no_memory() { return {false, true, false}; }
  static Options no_query() { return {true, false, false}; }
};

}  // namespace linear

struct CommonParams {
  std::uint32_t n = 16;
  std::uint32_t f = 4;
  Slot slots = 8;
  std::uint64_t seed = 1;
  std::string adversary = "none";
  std::uint32_t kappa_bits = kDefaultKappaBits;
  std::uint32_t value_bits = kDefaultValueBits;
  /// Expander parameter of the linear-family protocols (f <= (1/2-eps)n);
  /// ignored by the other families. The default matches the pre-engine
  /// registry behaviour bit-for-bit.
  double eps = 0.1;
  /// Payload size axis for long-message runs (DESIGN.md §13). 0 keeps the
  /// historical kappa-sized-value behaviour. The ext:* rows erasure-code
  /// a payload of this many bytes per slot; for every other row the sweep
  /// layer translates a nonzero payload into value_bits = 8 * payload
  /// (the value travels inline), so the same axis prices both designs.
  std::uint64_t payload_bytes = 0;
  /// Network delay policy (DESIGN.md §16): "lockstep" (classic synchronous
  /// delivery, the default — byte-identical to the pre-scheduler engine),
  /// "bounded:<delta>" (partial synchrony, seeded extra delays up to delta
  /// rounds) or "async[:<cap>]" (adversary-scheduled delivery, eventual
  /// delivery within cap rounds). Parsed per run with the run seed mixed
  /// in (make_net_policy), so the whole execution stays a pure function of
  /// (params, seed).
  std::string net = "lockstep";
};

/// A fully specified run of any family: the sweepable parameters plus the
/// in-process overrides a library caller may set.
struct RunConfig : CommonParams {
  /// Optional event sink, not owned (see src/trace/). Attaching a sink
  /// never changes the run.
  trace::TraceSink* trace = nullptr;
  /// Optional overrides; defaults: round-robin sender, hash-like inputs.
  std::function<Value(Slot)> input_for_slot;
  std::function<NodeId(Slot)> sender_of;
  /// Causal-input variant (Sequentiality, Definition 2): the sender of
  /// slot k may derive its input from values committed at slots j < k.
  /// Must only read slots < k. Takes precedence over input_for_slot.
  std::function<Value(Slot, const CommitLog&)> input_with_log;
  /// Linear family only: Algorithm 4 ablation switches.
  linear::Options opts;
  /// Dolev-Strong only: charge (and verify) multi-signature chains.
  bool use_multisig = false;
};

/// Test hooks, called with the live simulation (actors included): after
/// every simulated round, and once before teardown.
template <typename Sim>
struct SimHooks {
  std::function<void(Round, Sim&)> on_round_end;
  std::function<void(Sim&)> inspect;
};

/// A slot of a fixed number of lock-step rounds; slots are 1-based.
struct SlotSchedule {
  std::uint64_t per_slot = 1;

  std::uint64_t rounds_per_slot() const { return per_slot; }
  Slot slot_of(Round r) const { return static_cast<Slot>(r / per_slot) + 1; }
  std::uint32_t offset_of(Round r) const {
    return static_cast<std::uint32_t>(r % per_slot);
  }
};

/// The per-run fields every family's Context carries. drive() fills them
/// from the RunConfig; the family fills the rest.
struct RunContext {
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  WireModel wire;
  CommitLog* commits = nullptr;
  std::function<Value(Slot)> input_for_slot;
  std::function<NodeId(Slot)> sender_of;
  trace::TraceSink* trace = nullptr;  ///< optional event sink, not owned
};

}  // namespace ambb
