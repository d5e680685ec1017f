// Distributed key-generation-style ceremony under a DISHONEST MAJORITY,
// on top of Algorithm 5.2 (amortized O(kappa n^2), f < n).
//
// Many cryptographic protocols assume a broadcast channel with sequential,
// causal invocations (Section 1: [4, 17, 28]): every participant in turn
// broadcasts a contribution that depends on the transcript so far. Here
// each of the n participants broadcasts one contribution; dishonest
// participants (a majority!) may equivocate or stay silent — their round
// is then pinned to a provable "disqualified" (bot) outcome, and all
// honest participants still derive the identical final transcript digest.
#include <cstdio>
#include <string>

#include "bb/quadratic_bb.hpp"
#include "common/byte_buf.hpp"
#include "crypto/sha256.hpp"
#include "runner/result.hpp"
#include "runner/table.hpp"

int main() {
  using namespace ambb;

  const std::uint32_t n = 10;
  const std::uint32_t f = 6;  // dishonest majority
  const Slot rounds = n;      // one contribution per participant

  RunConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.slots = rounds;
  cfg.seed = 31337;
  cfg.adversary = "equivocate";  // corrupt dealers equivocate
  // Participant k-1 is the dealer of ceremony round k.
  cfg.sender_of = [](Slot k) { return static_cast<NodeId>(k - 1); };
  // A contribution is a hash of the dealer id and round (stands in for a
  // commitment to a secret-sharing polynomial).
  cfg.input_for_slot = [](Slot k) -> Value {
    Encoder e;
    e.put_tag("dkg-contribution");
    e.put_u32(k);
    const Digest d = Sha256::hash(
        std::span<const std::uint8_t>(e.bytes().data(), e.bytes().size()));
    Value v = 0;
    for (int i = 0; i < 8; ++i) v = v << 8 | d[i];
    return v;
  };

  std::printf(
      "DKG-style ceremony over Algorithm 5.2: %u participants, %u "
      "dishonest (MAJORITY), equivocating dealers\n\n",
      n, f);
  RunResult r = quad::run_quadratic(cfg);

  auto errs = check_all(r);
  for (const auto& e : errs) std::printf("PROPERTY VIOLATION: %s\n", e.c_str());
  if (!errs.empty()) return 1;

  TextTable t({"round", "dealer", "dealer status", "outcome"});
  std::uint32_t qualified = 0;
  for (Slot k = 1; k <= rounds; ++k) {
    // Read the outcome from the first honest participant (all agree).
    Value v = kBotValue;
    for (NodeId u = 0; u < n; ++u) {
      if (!r.corrupt[u]) {
        v = r.commits.get(u, k).value;
        break;
      }
    }
    const bool disqualified = v == kBotValue;
    if (!disqualified) ++qualified;
    t.add_row({std::to_string(k), std::to_string(r.senders[k]),
               r.corrupt[r.senders[k]] ? "corrupt" : "honest",
               disqualified ? "disqualified (bot)" : "accepted"});
  }
  std::printf("%s\n", t.render().c_str());

  // Transcript digest per honest participant.
  std::string first;
  bool all_equal = true;
  for (NodeId u = 0; u < n; ++u) {
    if (r.corrupt[u]) continue;
    Encoder e;
    for (Slot k = 1; k <= rounds; ++k) e.put_u64(r.commits.get(u, k).value);
    const Digest d = Sha256::hash(
        std::span<const std::uint8_t>(e.bytes().data(), e.bytes().size()));
    const std::string hex = digest_hex(d).substr(0, 16);
    if (first.empty()) first = hex;
    all_equal &= hex == first;
  }
  std::printf("qualified contributions: %u/%u (every honest dealer "
              "qualified)\n", qualified, n);
  std::printf("transcript digest agreed by all honest participants: %s "
              "(%s)\n", first.c_str(), all_equal ? "identical" : "MISMATCH");
  std::printf("amortized cost: %s/round\n",
              TextTable::bits_human(r.amortized()).c_str());
  return all_equal ? 0 : 1;
}
