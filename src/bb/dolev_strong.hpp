// Multi-shot Dolev-Strong [13]: the classic f < n authenticated Byzantine
// broadcast, run independently per slot (no amortization) — Table 1's
// dishonest-majority baseline.
//
// Slot structure (f+2 rounds):
//   round 0        sender multicasts <v> with its signature
//   rounds 1..f+1  a node that receives a value with a chain of >= t
//                  distinct signatures (sender's included) at round t
//                  extracts it (at most two distinct values), appends its
//                  own signature and multicasts
//   end of f+1     commit the unique extracted value, else bot
//
// Two wire modes reproduce both Table 1 rows:
//   plain signatures: a chain of c signatures costs c * (kappa + log n)
//                     -> O(kappa n^3) per slot
//   multi-signature:  a chain is one kappa-bit aggregate + n-bit bitmap
//                     -> O((kappa + n) n^2) = O(kappa n^2 + n^3) per slot
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/types.hpp"
#include "common/wire.hpp"
#include "crypto/multisig.hpp"
#include "crypto/signer.hpp"
#include "runner/result.hpp"
#include "runner/run_config.hpp"
#include "sim/commit_log.hpp"
#include "sim/net.hpp"

namespace ambb::ds {

enum class Kind : MsgKind { kRelay = 0, kKindCount };

std::vector<std::string> kind_names();

/// A relayed value with its signature chain. Both representations are
/// carried; RunConfig::use_multisig decides which one is *charged*
/// on the wire (and which one honest nodes verify).
struct Msg {
  Kind kind = Kind::kRelay;
  Slot slot = 0;
  Value value = 0;
  std::vector<Signature> chain;  ///< plain mode: individual signatures
  MultiSig agg;                  ///< multisig mode: aggregate + bitmap
};

Digest relay_digest(Slot k, Value v);

/// f + 2 rounds per slot (round 0 send, relay rounds 1..f+1).
using Schedule = SlotSchedule;

struct Context : RunContext {
  bool use_multisig = false;
  Schedule sched;
  const KeyRegistry* registry = nullptr;
  const MultiSigScheme* msig = nullptr;
};

std::uint64_t size_bits(const Msg& m, const Context& ctx);

/// Accounting policy, evaluated once per traffic record. A DS chain's
/// size depends only on the wire mode and chain length, so the policy
/// carries the mode flag instead of the whole Context.
struct CostPolicy {
  WireModel wire;
  Schedule sched;
  bool use_multisig = false;

  std::uint64_t size_bits(const Msg& m) const {
    std::uint64_t bits = wire.header_bits() + wire.value_bits;
    if (use_multisig) {
      bits += wire.multisig_bits();
    } else {
      bits += static_cast<std::uint64_t>(m.chain.size()) * wire.sig_bits();
    }
    return bits;
  }
  MsgKind kind(const Msg&) const { return MsgKind{0}; }
  Slot slot(const Msg& m, Round sent_round) const {
    return m.slot != 0 ? m.slot : sched.slot_of(sent_round);
  }
};

using Sim = Simulation<Msg, CostPolicy>;

class Deviation {
 public:
  virtual ~Deviation() = default;
  virtual bool silent(Round) const { return false; }
  /// Take over the sender's round-0 send.
  virtual bool override_send(Slot k, NodeId self, const Context& ctx,
                             RoundApi<Msg>& api) {
    (void)k;
    (void)self;
    (void)ctx;
    (void)api;
    return false;
  }
  virtual void extra(Slot k, std::uint32_t offset, NodeId self,
                     const Context& ctx, RoundApi<Msg>& api) {
    (void)k;
    (void)offset;
    (void)self;
    (void)ctx;
    (void)api;
  }
};

class DsNode final : public Actor<Msg> {
 public:
  DsNode(NodeId id, const Context* ctx,
         std::unique_ptr<Deviation> deviation = nullptr);

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>& rushed,
                RoundApi<Msg>& api) override;

 private:
  /// Number of distinct valid signers in the message's chain, kNoNode
  /// semantics: returns 0 if anything is malformed or the sender's
  /// signature is missing.
  std::uint32_t chain_strength(const Msg& m, NodeId sender) const;
  Msg extend(const Msg& m) const;

  NodeId id_;
  const Context* ctx_;
  std::unique_ptr<Deviation> dev_;
  Slot cur_slot_ = 0;
  std::vector<Value> extracted_;
};

/// A full multi-shot run through the shared harness (runner/drive.hpp);
/// any f < n. cfg.use_multisig picks the wire mode. Named adversaries:
/// "silent", "equivocate", "stagger".
RunResult run_dolev_strong(const RunConfig& cfg);

}  // namespace ambb::ds
