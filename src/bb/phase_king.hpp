// Multi-shot Byzantine broadcast from phase-king consensus
// (Berman-Garay-Perry [5] family): f < n/3, no cryptography — Table 1's
// first row.
//
// Slot structure (2 + 3(f+1) rounds):
//   round 0             sender multicasts its value
//   phases p = 0..f     three rounds each, king = node p:
//     R1  multicast current value V (bot = nothing received)
//     R2  pref := the (unique) value with >= n-f support in R1, else bot;
//         multicast pref; w* := most frequent R2 value, c* := its count
//     R3  the king multicasts its w*
//     (next round) if c* >= n-f keep V := w*, else adopt the king's value
//   final round: apply the last king's message and commit V.
// Bot is a first-class value throughout (a silent sender yields a
// unanimous bot decision).
//
// NOTE (substitution, see DESIGN.md): the genuine Berman et al. result
// achieves O(n^2) total bits per decision via a recursive construction;
// this implementation is the standard textbook phase-king, which costs
// Theta(n^2 * f) bits per slot worst-case. It is therefore a conservative
// (upper-bound) baseline: the qualitative Table 1 ordering — every
// baseline is at least quadratic per slot while Algorithm 4 is linear
// amortized — is unaffected.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/wire.hpp"
#include "runner/result.hpp"
#include "runner/run_config.hpp"
#include "sim/commit_log.hpp"
#include "sim/net.hpp"

namespace ambb::pk {

enum class Kind : MsgKind { kSend = 0, kR1, kR2, kKing, kKindCount };

std::vector<std::string> kind_names();

struct Msg {
  Kind kind = Kind::kSend;
  Slot slot = 0;
  std::uint32_t phase = 0;
  bool has_value = true;  ///< false encodes bot (in R2)
  Value value = 0;
};

/// 2 + 3(f + 1) rounds per slot (send, f + 1 phases, final round).
using Schedule = SlotSchedule;

struct Context : RunContext {
  Schedule sched;
};

std::uint64_t size_bits(const Msg& m, const WireModel& wire);

/// Accounting policy, evaluated once per traffic record.
struct CostPolicy {
  WireModel wire;
  Schedule sched;

  std::uint64_t size_bits(const Msg& m) const {
    return pk::size_bits(m, wire);
  }
  MsgKind kind(const Msg& m) const { return static_cast<MsgKind>(m.kind); }
  Slot slot(const Msg& m, Round sent_round) const {
    return m.slot != 0 ? m.slot : sched.slot_of(sent_round);
  }
};

using Sim = Simulation<Msg, CostPolicy>;

/// A full multi-shot run through the shared harness (runner/drive.hpp);
/// requires 3f < n. Named adversaries: "silent", "equivocate",
/// "confuse".
RunResult run_phase_king(const RunConfig& cfg);

}  // namespace ambb::pk
