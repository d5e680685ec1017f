#include "bb/quadratic_bb.hpp"

#include "common/check.hpp"
#include "runner/drive.hpp"

namespace ambb::quad {

QuadNode::QuadNode(NodeId id, const Context* ctx,
                   std::unique_ptr<Deviation> deviation)
    : id_(id),
      ctx_(ctx),
      dev_(std::move(deviation)),
      engine_(id, ctx),
      voted_(ctx->n),
      vote_seen_(ctx->n, BitVec(ctx->n)),
      vote_forwarded_(ctx->n, BitVec(ctx->n)),
      vote_sigs_(ctx->n) {}

Msg QuadNode::build_prop(Value v) const {
  Msg m;
  m.kind = Kind::kProp;
  m.slot = cur_slot_;
  m.value = v;
  m.sig = ctx_->registry->sign(id_, prop_digest(cur_slot_, v));
  return m;
}

void QuadNode::out_multicast(RoundApi<Msg>& api, const Msg& m, Round r,
                             std::uint32_t offset) {
  if (dev_ == nullptr) {
    api.multicast(m);
    return;
  }
  for (NodeId v = 0; v < ctx_->n; ++v) {
    if (!dev_->drop_send(r, offset, m.kind, v)) api.send(v, m);
  }
}

void QuadNode::vote_corrupt(NodeId target, RoundApi<Msg>& api, Round r) {
  if (voted_.get(target)) return;
  voted_.set(target);
  {
    trace::Event ev;
    ev.kind = trace::EventKind::kCorruptVote;
    ev.round = r;
    ev.slot = cur_slot_;
    ev.node = id_;
    ev.subject = target;
    trace::emit(ctx_->trace, ev);
  }
  Msg m;
  m.kind = Kind::kCorrupt;
  m.slot = cur_slot_;
  m.accused = target;
  m.sig = ctx_->registry->sign(id_, corrupt_digest(target));
  // Record our own vote so the tau-counting sees it immediately.
  if (!vote_seen_[target].get(id_)) {
    vote_seen_[target].set(id_);
    vote_sigs_[target].push_back(m.sig);
  }
  vote_forwarded_[target].set(id_);
  api.multicast(m);
}

void QuadNode::on_round(Round r, std::span<const Delivery<Msg>> inbox,
                        const TrafficView<Msg>& rushed,
                        RoundApi<Msg>& api) {
  (void)rushed;
  const Schedule& sched = ctx_->sched;
  const Slot k = sched.slot_of(r);
  const std::uint32_t offset = sched.offset_of(r);
  const std::uint32_t n = ctx_->n;
  const std::uint32_t f = ctx_->f;

  if (k != cur_slot_) {
    cur_slot_ = k;
    engine_.begin_slot(k);
  }
  engine_.set_round(r);

  if (dev_ != nullptr && dev_->silent(r)) return;

  const NodeId sender = engine_.slot_sender();

  // Inbox processing: TrustCast machinery runs in every round of the slot
  // (removals keep flowing during the DS phase — transferability needs
  // it); corrupt votes are recorded here.
  for (const auto& env : inbox) {
    const Msg& m = env.msg();
    if (m.kind == Kind::kCorrupt) {
      const NodeId voter = m.sig.signer;
      const NodeId target = m.accused;
      if (voter >= n || target >= n) continue;
      if (vote_seen_[target].get(voter)) continue;
      if (!ctx_->registry->verify(m.sig, corrupt_digest(target))) continue;
      vote_seen_[target].set(voter);
      vote_sigs_[target].push_back(m.sig);
    } else {
      const bool allow_send =
          dev_ == nullptr || !dev_->suppress_engine_sends(r, offset);
      engine_.handle(m, api, allow_send);
    }
  }

  if (offset == 0) {
    if (id_ == sender) {
      if (dev_ != nullptr && dev_->override_send(*this, api)) {
        // handled by the deviation
      } else {
        engine_.send_proposal(api);
      }
    }
  } else if (offset >= 1 && offset <= n) {
    engine_.tc_round_action(offset, api);
  } else {
    // Dolev-Strong phase: tau in [0, f+1].
    const std::uint32_t tau = offset - (n + 1);
    if (tau == 0) {
      if (!engine_.sender_present()) vote_corrupt(sender, api, r);
    } else {
      if (!engine_.sender_present() &&
          vote_seen_[sender].count() >= tau) {
        // Forward every vote we have not forwarded yet (each is a
        // distinct <corrupt, S_k>_w, shared across slots), then our own.
        for (std::size_t idx = 0; idx < vote_sigs_[sender].size(); ++idx) {
          const Signature& sig = vote_sigs_[sender][idx];
          if (vote_forwarded_[sender].get(sig.signer)) continue;
          vote_forwarded_[sender].set(sig.signer);
          Msg m;
          m.kind = Kind::kCorrupt;
          m.slot = cur_slot_;
          m.accused = sender;
          m.sig = sig;
          out_multicast(api, m, r, offset);
        }
        vote_corrupt(sender, api, r);
      }
    }
    // Commit at the end of the last round of the slot.
    if (offset == n + f + 2) {
      if (!ctx_->commits->has(id_, k)) {
        Value v = kBotValue;
        if (!voted_.get(sender)) {
          auto rv = engine_.received_value();
          // TrustCast termination guarantees an honest node that never
          // voted holds exactly one sender value. A Byzantine actor
          // replaying this logic (deviation attached) may not.
          AMBB_CHECK_MSG(rv.has_value() || dev_ != nullptr,
                         "node " << id_ << " slot " << k
                                 << ": no corrupt vote but no value either");
          v = rv.value_or(kBotValue);
        }
        ctx_->commits->record(id_, k, v, r);
        trace::Event ev;
        ev.kind = trace::EventKind::kSlotCommit;
        ev.round = r;
        ev.slot = k;
        ev.node = id_;
        ev.value = v;
        trace::emit(ctx_->trace, ev);
      }
    }
  }

  if (dev_ != nullptr) dev_->extra(*this, r, offset, api);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

namespace {

/// Algorithm 5.2 as a drive() family (runner/drive.hpp).
struct QuadFamily : FamilyDefaults {
  using Msg = quad::Msg;
  using Sim = quad::Sim;

  static std::vector<std::string> kind_names() { return quad::kind_names(); }

  static void check(const RunConfig& cfg) {
    AMBB_CHECK_MSG(cfg.n >= 3, "need at least 3 nodes");
    AMBB_CHECK_MSG(cfg.f < cfg.n, "Algorithm 5.2 requires f < n");
  }

  explicit QuadFamily(const RunConfig& cfg) : registry(cfg.n, cfg.seed) {
    ctx.sched = Schedule{cfg.n, cfg.f};
    ctx.registry = &registry;
  }

  CostPolicy cost() const { return CostPolicy{ctx.wire, ctx.sched}; }

  std::unique_ptr<Actor<Msg>> node(NodeId v) const {
    return std::make_unique<QuadNode>(v, &ctx);
  }

  /// The corrupted-seat replica runs honest logic but carries a no-op
  /// Deviation marker: honest-only invariant CHECKs (TrustCast's
  /// vote-or-value guarantee) must not fire for a Byzantine node
  /// replaying honest logic from mid-run fresh state.
  std::unique_ptr<Actor<Msg>> seat(NodeId v) const {
    return std::make_unique<QuadNode>(v, &ctx, std::make_unique<Deviation>());
  }

  std::unique_ptr<Adversary<Msg>> named_adversary(const std::string& spec,
                                                  std::uint64_t seed) const {
    return make_quad_adversary(spec, &ctx, seed);
  }

  /// Phase events: propose (round 0, naming the sender), trustcast
  /// (round 1) and dolev-strong (round n+1).
  void trace_round(Round r, std::uint64_t off, Slot k) const {
    trace::Event ev;
    ev.kind = trace::EventKind::kEpochPhase;
    ev.round = r;
    ev.slot = k;
    if (off == 0) {
      ev.node = ctx.sender_of(k);
      ev.detail = "propose";
    } else if (off == 1) {
      ev.detail = "trustcast";
    } else if (off == ctx.n + 1) {
      ev.detail = "dolev-strong";
    } else {
      return;
    }
    trace::emit(ctx.trace, ev);
  }

  KeyRegistry registry;
  Context ctx;
};

}  // namespace

RunResult run_quadratic(const RunConfig& cfg, const SimHooks<Sim>& hooks) {
  return drive<QuadFamily>(cfg, hooks);
}

}  // namespace ambb::quad
