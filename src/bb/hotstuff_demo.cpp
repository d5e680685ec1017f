#include "bb/hotstuff_demo.hpp"

#include <algorithm>

#include "adversary/scheduled.hpp"
#include "common/byte_buf.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "crypto/intern.hpp"
#include "runner/drive.hpp"

namespace ambb::hs {

std::vector<std::string> kind_names() {
  return {"propose", "vote1", "cert", "vote2", "proof"};
}

namespace {
Digest tagged_digest(const char* tag, Slot k, Value v) {
  Encoder& e = Encoder::scratch();
  e.reserve(32);
  e.put_tag(tag);
  e.put_u32(k);
  e.put_u64(v);
  return DigestCache::local().hash(tag, e.view());
}
}  // namespace

Digest prop_digest(Slot k, Value v) { return tagged_digest("hs-prop", k, v); }
Digest round1_digest(Slot k, Value v) { return tagged_digest("hs-r1", k, v); }
Digest round2_digest(Slot k, Value v) { return tagged_digest("hs-r2", k, v); }

std::uint64_t size_bits(const Msg& m, const WireModel& wire) {
  std::uint64_t bits = wire.header_bits();
  switch (m.kind) {
    case Kind::kPropose:
      bits += wire.value_bits + wire.sig_bits();
      break;
    case Kind::kVote1:
    case Kind::kVote2:
      bits += wire.value_bits + wire.sig_bits();
      break;
    case Kind::kCert:
    case Kind::kProof:
      bits += wire.value_bits + wire.thsig_bits();
      break;
    case Kind::kKindCount:
      AMBB_CHECK(false);
  }
  return bits;
}

namespace {

class HsNode final : public Actor<Msg> {
 public:
  /// starve(slot, to) — a leader deviation: drop the commit-proof copy
  /// addressed to `to`. Null for honest nodes.
  using StarveFn = std::function<bool(Slot, NodeId)>;

  HsNode(NodeId id, const Context* ctx, StarveFn starve = nullptr)
      : id_(id), ctx_(ctx), starve_(std::move(starve)) {}

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>& rushed,
                RoundApi<Msg>& api) override {
    (void)rushed;
    const Schedule& sched = ctx_->sched;
    const Slot k = sched.slot_of(r);
    const std::uint32_t off = sched.offset_of(r);
    const NodeId leader = ctx_->sender_of(k);
    const std::uint32_t quorum = ctx_->n - ctx_->f;

    if (k != cur_slot_) {
      cur_slot_ = k;
      value_ = kBotValue;
      votes1_.clear();
      votes2_.clear();
      cert_made_ = proof_made_ = false;
    }

    switch (off) {
      case 0:
        if (id_ == leader) {
          Msg m;
          m.kind = Kind::kPropose;
          m.slot = k;
          m.value = ctx_->input_for_slot(k);
          m.sig = ctx_->registry->sign(id_, prop_digest(k, m.value));
          value_ = m.value;
          api.multicast(m);
        }
        break;
      case 1:
        for (const auto& env : inbox) {
          const Msg& m = env.msg();
          if (m.kind != Kind::kPropose || m.slot != k) continue;
          if (m.sig.signer != leader ||
              !ctx_->registry->verify(m.sig, prop_digest(k, m.value))) {
            continue;
          }
          value_ = m.value;
          Msg v;
          v.kind = Kind::kVote1;
          v.slot = k;
          v.value = m.value;
          v.share = ctx_->th->share(id_, round1_digest(k, m.value));
          if (id_ == leader) {
            votes1_.push_back(v.share);
          } else {
            api.send(leader, v);
          }
          break;
        }
        break;
      case 2:
        if (id_ == leader && !cert_made_) {
          for (const auto& env : inbox) {
            const Msg& m = env.msg();
            if (m.kind != Kind::kVote1 || m.slot != k ||
                m.value != value_) {
              continue;
            }
            if (ctx_->th->verify_share(m.share, round1_digest(k, value_))) {
              votes1_.push_back(m.share);
            }
          }
          if (votes1_.size() >= quorum) {
            cert_made_ = true;
            {
              trace::Event ev;
              ev.kind = trace::EventKind::kCertFormed;
              ev.round = r;
              ev.slot = k;
              ev.node = id_;
              ev.value = value_;
              ev.detail = "cert";
              trace::emit(ctx_->trace, ev);
            }
            Msg c;
            c.kind = Kind::kCert;
            c.slot = k;
            c.value = value_;
            c.thsig = ctx_->th->combine(
                std::span<const SigShare>(votes1_), round1_digest(k, value_));
            api.multicast(c);
          }
        }
        break;
      case 3:
        for (const auto& env : inbox) {
          const Msg& m = env.msg();
          if (m.kind != Kind::kCert || m.slot != k) continue;
          if (!ctx_->th->verify(m.thsig, round1_digest(k, m.value))) continue;
          Msg v;
          v.kind = Kind::kVote2;
          v.slot = k;
          v.value = m.value;
          v.share = ctx_->th->share(id_, round2_digest(k, m.value));
          if (id_ == leader) {
            votes2_.push_back(v.share);
          } else {
            api.send(leader, v);
          }
          break;
        }
        break;
      case 4:
        if (id_ == leader && !proof_made_) {
          for (const auto& env : inbox) {
            const Msg& m = env.msg();
            if (m.kind != Kind::kVote2 || m.slot != k ||
                m.value != value_) {
              continue;
            }
            if (ctx_->th->verify_share(m.share, round2_digest(k, value_))) {
              votes2_.push_back(m.share);
            }
          }
          if (votes2_.size() >= quorum) {
            proof_made_ = true;
            {
              trace::Event ev;
              ev.kind = trace::EventKind::kCertFormed;
              ev.round = r;
              ev.slot = k;
              ev.node = id_;
              ev.value = value_;
              ev.detail = "commit-proof";
              trace::emit(ctx_->trace, ev);
            }
            Msg p;
            p.kind = Kind::kProof;
            p.slot = k;
            p.value = value_;
            p.thsig = ctx_->th->combine(
                std::span<const SigShare>(votes2_), round2_digest(k, value_));
            if (starve_ == nullptr) {
              api.multicast(p);
            } else {
              for (NodeId v = 0; v < ctx_->n; ++v) {
                if (!starve_(k, v)) api.send(v, p);
              }
            }
          }
        }
        break;
      case 5:
        for (const auto& env : inbox) {
          const Msg& m = env.msg();
          if (m.kind != Kind::kProof || m.slot != k) continue;
          if (!ctx_->th->verify(m.thsig, round2_digest(k, m.value))) continue;
          if (!ctx_->commits->has(id_, k)) {
            ctx_->commits->record(id_, k, m.value, r);
            trace::Event ev;
            ev.kind = trace::EventKind::kSlotCommit;
            ev.round = r;
            ev.slot = k;
            ev.node = id_;
            ev.value = m.value;
            trace::emit(ctx_->trace, ev);
          }
          break;
        }
        break;
    }
  }

 private:
  NodeId id_;
  const Context* ctx_;
  HsNode::StarveFn starve_;
  Slot cur_slot_ = 0;
  Value value_ = kBotValue;
  std::vector<SigShare> votes1_, votes2_;
  bool cert_made_ = false, proof_made_ = false;
};

/// HotStuff-without-fallback as a drive() family (runner/drive.hpp).
struct HsFamily : FamilyDefaults {
  using Msg = hs::Msg;
  using Sim = hs::Sim;
  static constexpr bool kBudgetAtLeastOne = true;

  static std::vector<std::string> kind_names() { return hs::kind_names(); }

  static void check(const RunConfig& cfg) {
    AMBB_CHECK_MSG(3 * cfg.f < cfg.n, "HotStuff assumes f < n/3");
  }

  explicit HsFamily(const RunConfig& cfg)
      : registry(cfg.n, cfg.seed), th(registry, cfg.n - cfg.f) {
    ctx.sched = Schedule{6};
    ctx.registry = &registry;
    ctx.th = &th;
  }

  CostPolicy cost() const { return CostPolicy{ctx.wire, ctx.sched}; }

  std::unique_ptr<Actor<Msg>> node(NodeId v) const {
    return std::make_unique<HsNode>(v, &ctx);
  }
  std::unique_ptr<Actor<Msg>> seat(NodeId v) const { return node(v); }

  /// "selective": corrupt leaders withhold the commit-proof from the f
  /// highest-numbered honest nodes; corrupt non-leaders behave honestly
  /// (they must, or the quorum narrative falls apart — the attack needs a
  /// *valid* proof).
  std::unique_ptr<Adversary<Msg>> named_adversary(const std::string& spec,
                                                  std::uint64_t seed) const {
    AMBB_CHECK_MSG(spec == "selective", "unknown hs adversary " << spec);
    return adversary::make_static_adversary<Msg>(
        ctx.n, ctx.f, seed, [c = &ctx](NodeId v) {
          return std::make_unique<HsNode>(
              v, c, [n = c->n, f = c->f](Slot, NodeId to) {
                return to >= n - f;
              });
        });
  }

  KeyRegistry registry;
  ThresholdScheme th;
  Context ctx;
};

}  // namespace

RunResult run_hotstuff_demo(const RunConfig& cfg) {
  return drive<HsFamily>(cfg);
}

}  // namespace ambb::hs
