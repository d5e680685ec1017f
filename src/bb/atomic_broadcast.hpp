// Byzantine atomic broadcast on top of multi-shot BB.
//
// Section 2: "With synchrony, multi-shot Byzantine broadcast can directly
// solve Byzantine atomic broadcast [10, 30] that commits values at
// increasing slots (not vice versa...). Our protocol also solves
// Byzantine atomic broadcast with linear communication complexity."
//
// This adapter turns the slot-indexed commits of a multi-shot BB run into
// the atomic-broadcast delivery abstraction: a totally ordered, gap-free
// log per replica with the standard properties —
//   Total order:  honest replicas deliver identical logs.
//   Agreement:    if an honest replica delivers an entry, all do.
//   Validity:     an honest proposer's payload is delivered at its slot.
// Delivery is strictly in slot order even when the underlying commits
// are observed out of order (a late commit-proof can land after later
// slots' proofs); the Delivery queue buffers and releases in order.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bb/linear_bb.hpp"
#include "runner/result.hpp"

namespace ambb::abc {

struct LogEntry {
  Slot slot = 0;
  NodeId proposer = kNoNode;
  Value payload = kBotValue;
  Round decided_round = 0;
};

/// Per-replica in-order delivery queue: accepts slot commits in any order
/// and releases a gap-free prefix.
class DeliveryQueue {
 public:
  /// Buffer a decided slot. Duplicate slots are rejected (CheckError) —
  /// the BB layer guarantees at most one commit per slot.
  void decide(Slot slot, NodeId proposer, Value payload, Round round);

  /// Entries delivered so far (gap-free, slots 1..delivered_upto()).
  const std::vector<LogEntry>& log() const { return log_; }
  Slot delivered_upto() const { return static_cast<Slot>(log_.size()); }

  /// Slots decided but still blocked behind a gap.
  std::size_t pending() const;

 private:
  void drain();

  std::vector<LogEntry> log_;
  std::vector<std::optional<LogEntry>> pending_;  // index: slot
};

struct AbcResult {
  RunResult bb;                          ///< the underlying BB execution
  std::vector<DeliveryQueue> replicas;   ///< one log per node (index = id)

  bool is_honest(NodeId v) const { return bb.is_honest(v); }
};

/// Run atomic broadcast over Algorithm 4 (amortized O(kappa n) per
/// delivered entry) and materialize every replica's delivered log. The
/// payload the proposer of a slot injects is cfg.input_for_slot
/// (default: a seeded hash).
AbcResult run_atomic_broadcast(const RunConfig& cfg);

/// Property checkers (empty result = holds).
std::vector<std::string> check_total_order(const AbcResult& r);
std::vector<std::string> check_agreement(const AbcResult& r);
std::vector<std::string> check_abc_validity(const AbcResult& r);

}  // namespace ambb::abc
