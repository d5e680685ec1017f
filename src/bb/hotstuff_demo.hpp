// HotStuff-without-fallback (Appendix A): a synchronous leader-hub
// protocol with threshold-signature vote aggregation and NO dissemination
// fallback. Demonstrates the permanent liveness failure the paper's
// Algorithm 4 exists to fix: a selective-send leader can produce a valid
// commit-proof while withholding it from up to f honest nodes, who then
// never commit that slot — and nothing in the protocol ever helps them.
//
// Slot structure (6 rounds): propose, vote-1 -> leader, cert multicast,
// vote-2 -> leader, commit-proof multicast, commit-on-receipt.
//
// This is deliberately a simplification of HotStuff (no views/pacemaker,
// no pipelining, synchronous rounds) — exactly the "failure-free
// synchronous multi-shot BB" reading Appendix A gives it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/wire.hpp"
#include "crypto/threshold.hpp"
#include "runner/result.hpp"
#include "runner/run_config.hpp"
#include "sim/commit_log.hpp"
#include "sim/net.hpp"

namespace ambb::hs {

enum class Kind : MsgKind {
  kPropose = 0,
  kVote1,
  kCert,
  kVote2,
  kProof,
  kKindCount
};

std::vector<std::string> kind_names();

struct Msg {
  Kind kind = Kind::kPropose;
  Slot slot = 0;
  Value value = 0;
  SigShare share{};
  ThresholdSig thsig{};
  Signature sig{};  ///< leader signature on the proposal
};

Digest prop_digest(Slot k, Value v);
Digest round1_digest(Slot k, Value v);
Digest round2_digest(Slot k, Value v);

/// 6 rounds per slot.
using Schedule = SlotSchedule;

struct Context : RunContext {
  Schedule sched;
  const KeyRegistry* registry = nullptr;
  const ThresholdScheme* th = nullptr;  ///< t = n - f
};

std::uint64_t size_bits(const Msg& m, const WireModel& wire);

/// Accounting policy, evaluated once per traffic record.
struct CostPolicy {
  WireModel wire;
  Schedule sched;

  std::uint64_t size_bits(const Msg& m) const {
    return hs::size_bits(m, wire);
  }
  MsgKind kind(const Msg& m) const { return static_cast<MsgKind>(m.kind); }
  Slot slot(const Msg& m, Round sent_round) const {
    return m.slot != 0 ? m.slot : sched.slot_of(sent_round);
  }
};

using Sim = Simulation<Msg, CostPolicy>;

/// Runs through the shared harness (runner/drive.hpp); requires 3f < n.
/// Named adversary: "selective". NOTE: under it this intentionally FAILS
/// the termination property — that is the point of Appendix A. Callers
/// must not assert check_termination on such runs.
RunResult run_hotstuff_demo(const RunConfig& cfg);

}  // namespace ambb::hs
