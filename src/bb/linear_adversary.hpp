// Byzantine adversary strategies for Algorithm 4, covering the worst cases
// analysed in Section 4.2 plus a strongly-adaptive after-the-fact removal
// demonstration.
//
// Specs accepted by make_adversary():
//   "none"          no corruptions (failure-free baseline)
//   "silent"        corrupt nodes never send: forces accusations and
//                   corrupt-proofs; exercises the expensive-slot path
//   "equivocate"    corrupt leaders propose two conflicting values
//   "selective"     corrupt leaders run the epoch honestly but withhold
//                   the commit-proof from a rotating subset and never
//                   answer queries: exercises Query/Respond-1/2
//   "flood"         corrupt nodes spam fresh accusations + query2 every
//                   epoch until they run out of nodes to accuse
//                   (the bounded Respond-2 attack of Section 4.2)
//   "mixed"         round-robin mix of the strategies above — used as the
//                   worst-case-style adversary for Table 1
//   "adaptive-erase" starts with zero corruptions; corrupts the slot-1
//                   sender after seeing its proposal and erases the copies
//                   sent to odd-numbered nodes (after-the-fact removal)
//
// run_linear also accepts "none" and every "sched:..." / "fuzz[:k]"
// fault schedule (src/adversary/); the driver harness (runner/drive.hpp)
// builds those, wrapping the generic FaultedActor around honest
// LinearNodes.
//
// All named strategies are expressed on the src/adversary/ primitives: a
// ScheduledAdversary carries the corruption/erase schedule, and the
// Deviation-based Byzantine actors plug in via its byzantine-factory
// override.
#pragma once

#include <memory>
#include <string>

#include "bb/linear_bb.hpp"

namespace ambb::linear {

/// A named strategy above (not "none" and not a schedule spec: the
/// driver harness builds those). Throws CheckError on an unknown spec.
std::unique_ptr<Adversary<Msg>> make_adversary(const std::string& spec,
                                               const Context* ctx,
                                               std::uint64_t seed);

}  // namespace ambb::linear
