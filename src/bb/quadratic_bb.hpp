// Algorithm 5.2: multi-shot Byzantine broadcast with amortized
// O(kappa*n^2) communication under a dishonest majority f < n (Section 5).
//
// Each slot k takes n + f + 3 rounds:
//   round 0            sender S_k multicasts <prop, m, k>_{S_k}
//   rounds 1..n        TrustCast: forwarding, distance-based accusations,
//                      trust-graph maintenance (see trustcast.hpp)
//   rounds n+1..n+f+2  Dolev-Strong phase on the *sender's corruption*
//                      (tau = t - (n+1)):
//                        tau = 0:        if S_k not in G_u, vote
//                                        <corrupt, S_k>_u (once, ever)
//                        1<=tau<=f+1:    if >= tau distinct corrupt votes
//                                        seen and S_k not in G_u, forward
//                                        the unseen votes + own vote
//   end of round n+f+2: commit m if this node never voted corrupt S_k,
//                       else commit bot.
//
// Amortization: the trust graph, every <accuse> pair, and every
// <corrupt, v>_w vote are shared across all slots and multicast at most
// once per node, so graph maintenance costs O(kappa n^4) total and the
// Dolev-Strong phase runs with nonzero traffic in at most f slots —
// once a sender is proven corrupt all its later slots commit bot silently.
#pragma once

#include <memory>
#include <string>

#include "bb/trustcast.hpp"
#include "runner/result.hpp"

namespace ambb::quad {

class QuadNode;

/// Byzantine deviation hooks (mirrors linear::Deviation).
class Deviation {
 public:
  virtual ~Deviation() = default;
  virtual bool silent(Round) const { return false; }
  /// Take over the sender's round-0 proposal. Return true if handled.
  virtual bool override_send(QuadNode& self, RoundApi<Msg>& api) {
    (void)self;
    (void)api;
    return false;
  }
  /// Suppress the honest forwarding the TrustCast engine would perform
  /// (colluders who sit on information).
  virtual bool suppress_engine_sends(Round r, std::uint32_t offset) {
    (void)r;
    (void)offset;
    return false;
  }
  virtual bool drop_send(Round r, std::uint32_t offset, Kind kind,
                         NodeId to) {
    (void)r;
    (void)offset;
    (void)kind;
    (void)to;
    return false;
  }
  virtual void extra(QuadNode& self, Round r, std::uint32_t offset,
                     RoundApi<Msg>& api) {
    (void)self;
    (void)r;
    (void)offset;
    (void)api;
  }
};

class QuadNode final : public Actor<Msg> {
 public:
  QuadNode(NodeId id, const Context* ctx,
           std::unique_ptr<Deviation> deviation = nullptr);

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>& rushed,
                RoundApi<Msg>& api) override;

  NodeId id() const { return id_; }
  const Context& ctx() const { return *ctx_; }
  const TrustCastEngine& engine() const { return engine_; }
  bool voted_corrupt(NodeId target) const { return voted_.get(target); }
  /// Number of distinct corrupt votes seen for `target` (across slots).
  std::uint32_t corrupt_votes_seen(NodeId target) const {
    return static_cast<std::uint32_t>(vote_seen_[target].count());
  }

  // Helpers for Deviation implementations.
  Msg build_prop(Value v) const;

 private:
  void vote_corrupt(NodeId target, RoundApi<Msg>& api, Round r);
  void out_multicast(RoundApi<Msg>& api, const Msg& m, Round r,
                     std::uint32_t offset);

  NodeId id_;
  const Context* ctx_;
  std::unique_ptr<Deviation> dev_;
  TrustCastEngine engine_;

  // persistent: Dolev-Strong votes are shared across slots.
  BitVec voted_;                       ///< own <corrupt, v>_id sent
  std::vector<BitVec> vote_seen_;      ///< [target] -> voters seen
  std::vector<BitVec> vote_forwarded_; ///< [target] -> voters forwarded
  std::vector<std::vector<Signature>> vote_sigs_;  ///< [target] kept sigs

  Slot cur_slot_ = 0;
};

/// A full multi-shot run through the shared harness (runner/drive.hpp);
/// any f < n.
RunResult run_quadratic(const RunConfig& cfg, const SimHooks<Sim>& hooks = {});

/// Named adversary specs: "silent", "equivocate", "conspiracy" (sender
/// serves only its corrupt colluders, who forward at the last moment),
/// "lateprop" (sender stays silent for a few rounds, then multicasts),
/// "floodaccuse" (corrupt nodes accuse everyone, stressing the
/// O(kappa n^4) graph-maintenance bound) and "framer". run_quadratic also
/// accepts "none" and the generic "sched:..." / "fuzz[:k]" fault
/// schedules of src/adversary/, which the harness builds. Throws
/// CheckError on an unknown spec.
std::unique_ptr<Adversary<Msg>> make_quad_adversary(const std::string& spec,
                                                    const Context* ctx,
                                                    std::uint64_t seed);

}  // namespace ambb::quad
