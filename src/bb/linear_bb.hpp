// Algorithm 4: multi-shot Byzantine broadcast with amortized O(kappa*n)
// communication under f <= (1/2 - eps)n (Section 4 of the paper).
//
// Structure per slot k: f+2 epochs of 11 rounds each; epoch i of slot k
// starts at round 11*((k-1)(f+2) + i). Epoch leader: L_0 = S_k (the slot
// sender), L_i = node i-1 (0-indexed) for 1 <= i <= f+1, so epochs
// 1..f+1 have distinct leaders and at least one is honest.
//
// Round offsets within an epoch:
//   0 Collect      send freshest slot-k certificate (or bot) to L_i
//   1 Propose      leader multicasts <prop, k, i, m, C>_{L_i}
//   2 Propagate-1  forward an acceptably-fresh proposal to expander nbrs
//   3 Vote         accuse on equivocation, else vote share -> leader
//   4 Certificate  leader aggregates n-f votes -> C_{k,i}(m), multicast
//   5 Propagate-2  forward cert to nbrs; cert share -> leader
//   6 Commit       leader aggregates n-f cert shares -> commit-proof,
//                  multicast
//   7 Query-1      missing proof: multicast accuse(L_i), query1 -> helper
//   8 Respond-1    helper with a proof answers its querier
//   9 Query-2      helper failed: multicast accuse(helper) + query2
//  10 Respond-2    nodes with a proof answer fresh-accusation query2s
//
// Two points are under-specified in the paper text; we implement the
// reading required by the paper's own proofs and document it here:
//
//  1. All nodes that miss the commit-proof accuse L_i simultaneously in
//     round Query-1, so a querier cannot know at selection time whether
//     its helper also missed the proof (and an equally starved honest
//     helper cannot respond). Lemma 3's proof ("u would not have sent
//     query1 to L_i") only goes through if the accusation of round
//     Query-2 targets a helper selected with round-Query-2 knowledge,
//     which by then includes all simultaneous Query-1 accusations: the
//     querier re-evaluates "smallest v not accused by me that has not
//     accused L_i" and accuses THAT node (it provably withheld a proof
//     it must hold, or is refusing service). Accusing the stale round-
//     Query-1 target instead would make honest nodes accuse equally
//     starved honest helpers; corrupt-proofs could then form on honest
//     future leaders and termination would break — later epochs cannot
//     rescue a starved node on their own, because committed nodes are
//     gated out of voting and no n-f quorum remains.
//  2. The epoch gate ("runs the following steps if it has neither
//     committed nor received the corrupt-proof of L_i") applies to the
//     progress steps (offsets 0-7 and 9). Respond-1/Respond-2 must keep
//     running after commit — a committed node is exactly the node that
//     holds the commit-proof its querier needs, and Lemma 3 relies on
//     helpers answering. A responder answers with any slot-k commit
//     proof it holds (same wire size).
//
// Cross-slot persistent state (the amortization technique): the set of
// accusations a node has issued and seen, corrupt-proofs, and the derived
// helper-selection order. Every super-linear event consumes a fresh
// accusation pair or a one-time corrupt-proof, bounding the additive cost
// by O(kappa*n^3) (Section 4.2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "common/types.hpp"
#include "common/wire.hpp"
#include "crypto/signer.hpp"
#include "crypto/threshold.hpp"
#include "graph/expander.hpp"
#include "runner/result.hpp"
#include "runner/run_config.hpp"
#include "sim/commit_log.hpp"
#include "sim/net.hpp"

namespace ambb::linear {

enum class Kind : MsgKind {
  kCollect = 0,
  kPropose,
  kPropForward,
  kVote,
  kCert,
  kCertForward,
  kCertVote,
  kCommitProof,
  kAccuse,
  kAccuseForward,
  kCorruptProof,
  kQuery1,
  kQuery2,
  kKindCount
};

const char* kind_name(Kind k);
std::vector<std::string> kind_names();

struct Msg {
  Kind kind = Kind::kCollect;
  Slot slot = 0;
  Epoch epoch = 0;
  Value value = 0;

  bool has_cert = false;     ///< Collect/Propose: false encodes bot
  Epoch cert_epoch = 0;
  ThresholdSig cert{};       ///< thsig(vote, k, j, m)

  Epoch proof_epoch = 0;     ///< CommitProof: the epoch j of the proof
  ThresholdSig proof{};      ///< commit-proof or corrupt-proof

  SigShare share{};          ///< Vote / CertVote / Accuse share
  Signature sig{};           ///< leader signature on a proposal
  NodeId accused = kNoNode;  ///< Accuse* / CorruptProof
};

/// Exact wire size in bits under the paper's size model.
std::uint64_t size_bits(const Msg& m, const WireModel& wire);

// Signing digests (domain-separated canonical encodings).
Digest vote_digest(Slot k, Epoch i, Value m);
Digest commit_digest(Slot k, Epoch i, Value m);
Digest accuse_digest(NodeId accused);
Digest prop_digest(const Msg& prop);

struct Schedule {
  std::uint32_t f = 0;
  static constexpr std::uint32_t kRoundsPerEpoch = 11;

  std::uint32_t epochs_per_slot() const { return f + 2; }
  std::uint64_t rounds_per_slot() const {
    return static_cast<std::uint64_t>(kRoundsPerEpoch) * epochs_per_slot();
  }
  Slot slot_of(Round r) const {
    return static_cast<Slot>(r / rounds_per_slot()) + 1;
  }
  Epoch epoch_of(Round r) const {
    return static_cast<Epoch>((r % rounds_per_slot()) / kRoundsPerEpoch);
  }
  std::uint32_t offset_of(Round r) const {
    return static_cast<std::uint32_t>(r % kRoundsPerEpoch);
  }
};

/// Accounting policy, evaluated by the simulator once per traffic record
/// (once per multicast, once per unicast — never per delivery).
struct CostPolicy {
  WireModel wire;
  Schedule sched;

  std::uint64_t size_bits(const Msg& m) const;
  MsgKind kind(const Msg& m) const { return static_cast<MsgKind>(m.kind); }
  Slot slot(const Msg& m, Round sent_round) const {
    return m.slot != 0 ? m.slot : sched.slot_of(sent_round);
  }
};

using Sim = Simulation<Msg, CostPolicy>;

/// Read-only execution context shared by all actors of one run.
struct Context : RunContext {
  Schedule sched;
  const KeyRegistry* registry = nullptr;
  const ThresholdScheme* th = nullptr;  ///< threshold t = n - f
  const Graph* expander = nullptr;
  Options opts;

  NodeId leader(Slot k, Epoch i) const {
    return i == 0 ? sender_of(k) : static_cast<NodeId>((i - 1) % n);
  }
};

class LinearNode;

/// Byzantine deviation hooks. An adversary actor is a LinearNode carrying
/// a Deviation; null means honest. Keeping deviations as explicit hooks on
/// the honest state machine makes each attack's deviation auditable.
class Deviation {
 public:
  virtual ~Deviation() = default;
  /// Drop everything this round (receive-only).
  virtual bool silent(Round) const { return false; }
  /// Filter an outgoing message (selective send / withholding).
  virtual bool drop_send(Round r, std::uint32_t offset, Kind kind,
                         NodeId to) {
    (void)r;
    (void)offset;
    (void)kind;
    (void)to;
    return false;
  }
  /// Take over the leader's Propose step entirely (e.g. equivocate).
  /// Return true if handled.
  virtual bool override_propose(LinearNode& self, RoundApi<Msg>& api) {
    (void)self;
    (void)api;
    return false;
  }
  /// Arbitrary extra traffic at the end of the round.
  virtual void extra(LinearNode& self, Round r, std::uint32_t offset,
                     RoundApi<Msg>& api) {
    (void)self;
    (void)r;
    (void)offset;
    (void)api;
  }
  /// The earliest round after r (at epoch offset `offset`) at which the
  /// deviation itself must act with an empty inbox. LinearNode combines it
  /// with the honest wake rule by min (DESIGN.md §17). After a silent
  /// round the honest rule does not apply, so the result must also cover
  /// the round in which the silence ends. Deviations that only act
  /// through the honest steps (drop_send, override_propose) or never act
  /// (silent forever) return kNeverWake; the default keeps the node awake
  /// every round.
  virtual Round next_wake(Round r, std::uint32_t offset) const {
    (void)offset;
    return r + 1;
  }
};

class LinearNode final : public Actor<Msg> {
 public:
  LinearNode(NodeId id, const Context* ctx,
             std::unique_ptr<Deviation> deviation = nullptr);

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>& rushed,
                RoundApi<Msg>& api) override;
  Round wake_round() const override { return next_wake_; }

  // ---- Introspection (tests + deviations) ----
  NodeId id() const { return id_; }
  const Context& ctx() const { return *ctx_; }
  bool accused(NodeId v) const { return accused_by_me_.get(v); }
  const BitVec& accused_by_me() const { return accused_by_me_; }
  bool seen_accuse(NodeId accuser, NodeId target) const {
    return accuse_seen_[accuser].get(target);
  }
  bool has_corrupt_proof(NodeId v) const { return corrupt_proof_have_[v]; }
  bool committed_current_slot() const { return committed_; }
  Slot current_slot() const { return cur_slot_; }
  std::uint64_t expensive_epochs() const { return expensive_epochs_; }

  // ---- Helpers usable from Deviation implementations ----
  /// Build a correctly signed proposal for the current (slot, epoch) with
  /// the given value and no certificate.
  Msg build_fresh_proposal(Value v) const;
  /// Issue (and record) an accusation share against v, multicast.
  void issue_accuse(NodeId v, RoundApi<Msg>& api);
  Msg build_query2() const;

 private:
  /// One round of Algorithm 4 (everything on_round does except choosing
  /// the next wake round).
  void act(Round r, std::span<const Delivery<Msg>> inbox, RoundApi<Msg>& api);
  /// The honest wake rule: the next round at which an empty-inbox call
  /// could do anything.
  Round honest_wake(Round r) const;

  // Inbox processing: the "at any point" (*) rules plus state updates.
  void process_inbox(Round r, std::span<const Delivery<Msg>> inbox,
                     RoundApi<Msg>& api);
  void handle_accuse(const Msg& m, bool forwarded, RoundApi<Msg>& api);
  void maybe_commit(Slot k, Epoch j, Value v, const ThresholdSig& proof,
                    Round r, RoundApi<Msg>& api);
  void trace_commit(Slot k, Epoch j, Value v, Round r);
  void note_cert(Slot k, Epoch j, Value v, const ThresholdSig& cert);

  // Offset-specific progress steps.
  void do_collect(RoundApi<Msg>& api);
  void do_propose(RoundApi<Msg>& api);
  void do_propagate1(std::span<const Delivery<Msg>> inbox,
                     RoundApi<Msg>& api);
  void do_vote(RoundApi<Msg>& api);
  void do_certificate(RoundApi<Msg>& api);
  void do_propagate2(std::span<const Delivery<Msg>> inbox,
                     RoundApi<Msg>& api);
  void do_commit(RoundApi<Msg>& api);
  void do_query1(RoundApi<Msg>& api);
  void do_respond1(std::span<const Delivery<Msg>> inbox, RoundApi<Msg>& api);
  void respond_to_querier(NodeId querier, RoundApi<Msg>& api);
  void do_query2(RoundApi<Msg>& api);
  void do_respond2(std::span<const Delivery<Msg>> inbox, RoundApi<Msg>& api);

  void reset_slot(Slot k);
  void reset_epoch(Epoch i);
  void out(RoundApi<Msg>& api, NodeId to, const Msg& m);
  void out_multicast(RoundApi<Msg>& api, const Msg& m);
  /// Smallest w != self with !accused_by_me(w) and !seen_accuse(w, leader).
  std::optional<NodeId> pick_helper(NodeId leader) const;
  /// Mirrors pick_helper from the perspective of querier q: the node every
  /// honest responder believes should answer q.
  std::optional<NodeId> expected_responder(NodeId querier,
                                           NodeId leader) const;
  bool validate_proposal(const Msg& m, NodeId leader) const;
  /// Leader of (cur_slot_, cur_epoch_), recomputed by reset_epoch (cached:
  /// the Context::leader indirection is a std::function in epoch 0).
  NodeId cur_leader() const { return cur_leader_; }

  NodeId id_;
  const Context* ctx_;
  std::unique_ptr<Deviation> dev_;
  Round round_ = 0;
  std::uint32_t offset_ = 0;
  Round next_wake_ = 0;  ///< reported by wake_round()

  // Incremental schedule cache: position the NEXT round will have if it
  // arrives consecutively (it always does under the simulator).
  Round sched_next_r_ = static_cast<Round>(-1);
  Slot sched_k_ = 0;
  Epoch sched_i_ = 0;
  std::uint32_t sched_off_ = 0;

  // ---- persistent across slots ----
  BitVec accused_by_me_;
  std::vector<BitVec> accuse_seen_;           ///< [accuser] -> accused set
  std::vector<std::vector<SigShare>> accuse_shares_;  ///< per accused
  std::vector<std::uint8_t> corrupt_proof_have_;
  std::vector<std::uint8_t> corrupt_proof_sent_;
  std::vector<ThresholdSig> corrupt_proof_sig_;
  std::uint64_t expensive_epochs_ = 0;  ///< instrumentation

  // ---- per slot ----
  Slot cur_slot_ = 0;
  bool committed_ = false;
  Value committed_value_ = kBotValue;
  bool have_freshest_ = false;  ///< false encodes bot
  Epoch freshest_epoch_ = 0;
  Value freshest_value_ = 0;
  ThresholdSig freshest_cert_{};
  bool have_commit_proof_ = false;  ///< proof held for responding
  Epoch commit_proof_epoch_ = 0;
  Value commit_proof_value_ = 0;
  ThresholdSig commit_proof_{};
  BitVec star4_forwarded_;  ///< (*4) once per epoch of this slot
  bool forwarded_commit_proof_ = false;  ///< Options::always_forward

  // ---- per epoch ----
  Epoch cur_epoch_ = 0;
  NodeId cur_leader_ = kNoNode;
  bool sent_collect_ = false;
  bool collect_had_cert_ = false;  ///< freshness baseline I sent in Collect
  Epoch collect_epoch_ = 0;
  std::vector<Value> prop_values_seen_;
  bool equivocation_ = false;
  bool propagated_ = false;
  Value propagated_value_ = 0;
  Msg propagated_prop_{};
  bool epoch_got_cert_ = false;
  std::optional<NodeId> query_target_;
  bool epoch_had_traffic_ = false;  ///< instrumentation (expensive slots)

  // leader-only per epoch
  bool lead_proposed_ = false;
  Value lead_value_ = 0;
  std::vector<SigShare> lead_votes_;
  BitVec lead_vote_from_;
  std::vector<SigShare> lead_cert_votes_;
  BitVec lead_cert_vote_from_;
  bool lead_cert_made_ = false;
  bool lead_proof_made_ = false;

  // round-local: accusations that first arrived this round. fresh_dirty_
  // tracks whether the buffers hold anything, so the (common) quiet round
  // skips the O(n) clear.
  std::vector<std::uint8_t> fresh_accuse_from_;
  std::vector<std::pair<NodeId, NodeId>> fresh_pairs_;  ///< (accuser, target)
  bool fresh_dirty_ = false;

  // Reused Respond-round scratch bitmap (who was already answered); a
  // member so steady-state rounds allocate nothing.
  BitVec answered_scratch_;
};

/// A full multi-shot run through the shared harness (runner/drive.hpp).
/// Reads cfg.opts and cfg.input_with_log; requires f <= (1/2 - eps) n.
RunResult run_linear(const RunConfig& cfg, const SimHooks<Sim>& hooks = {});

}  // namespace ambb::linear
