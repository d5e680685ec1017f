// Adversary strategies for Algorithm 5.2 / TrustCast.
#include <algorithm>

#include "adversary/scheduled.hpp"
#include "bb/quadratic_bb.hpp"
#include "common/check.hpp"

namespace ambb::quad {

namespace {

class SilentDev final : public Deviation {
 public:
  bool silent(Round) const override { return true; }
};

/// Sender sends value A to even nodes and value B to odd nodes. Honest
/// forwarding spreads both, everyone removes the sender, all commit bot.
class EquivocateDev final : public Deviation {
 public:
  bool override_send(QuadNode& self, RoundApi<Msg>& api) override {
    const Msg a = self.build_prop(0xAAAA);
    const Msg b = self.build_prop(0xBBBB);
    for (NodeId v = 0; v < self.ctx().n; ++v) {
      api.send(v, v % 2 == 0 ? a : b);
    }
    return true;
  }
};

/// Conspiracy: the corrupt sender serves only its corrupt colluders
/// (nodes 0..f-1); the colluders sit on the message and multicast it at
/// TrustCast round n-1, after every honest node has already cut its way
/// to the sender. Honest nodes end up holding the value AND a removed
/// sender — they must still all commit bot (consistency stress).
class ConspiracySenderDev final : public Deviation {
 public:
  bool override_send(QuadNode& self, RoundApi<Msg>& api) override {
    const Slot k = self.engine().slot();
    const Msg m = self.build_prop(self.ctx().input_for_slot(k));
    for (NodeId c = 0; c < self.ctx().f; ++c) api.send(c, m);
    return true;
  }
};

class ConspiracyColluderDev final : public Deviation {
 public:
  bool suppress_engine_sends(Round, std::uint32_t) override { return true; }

  void extra(QuadNode& self, Round r, std::uint32_t offset,
             RoundApi<Msg>& api) override {
    (void)r;
    const Context& ctx = self.ctx();
    if (offset != ctx.n - 1) return;
    const Slot k = self.engine().slot();
    const NodeId sender = ctx.sender_of(k);
    if (sender >= ctx.f) return;  // only collude for corrupt senders
    // The adversary controls the sender's key: re-sign and release late.
    Msg m;
    m.kind = Kind::kProp;
    m.slot = k;
    m.value = ctx.input_for_slot(k);
    m.sig = ctx.registry->sign(sender, prop_digest(k, m.value));
    api.multicast(m);
  }
  bool silent(Round) const override { return false; }
};

/// Sender is silent in round 0 and multicasts its proposal from round 1
/// instead — too late: honest nodes have already started accusing.
class LatePropDev final : public Deviation {
 public:
  bool override_send(QuadNode&, RoundApi<Msg>&) override { return true; }
  void extra(QuadNode& self, Round, std::uint32_t offset,
             RoundApi<Msg>& api) override {
    const Slot k = self.engine().slot();
    if (self.ctx().sender_of(k) != self.id() || offset != 1) return;
    Msg m = self.build_prop(self.ctx().input_for_slot(k));
    api.multicast(m);
  }
};

/// Corrupt nodes accuse every other node in slot 1, maximizing trust-graph
/// maintenance traffic (the O(kappa n^4) bound) and severing themselves.
class FloodAccuseDev final : public Deviation {
 public:
  void extra(QuadNode& self, Round r, std::uint32_t offset,
             RoundApi<Msg>& api) override {
    if (done_ || offset != 1) return;
    done_ = true;
    (void)r;
    const Context& ctx = self.ctx();
    for (NodeId v = 0; v < ctx.n; ++v) {
      if (v == self.id()) continue;
      Msg m;
      m.kind = Kind::kAccuse;
      m.slot = self.engine().slot();
      m.accused = v;
      m.sig = ctx.registry->sign(self.id(), accuse_digest(v));
      api.multicast(m);
    }
  }

 private:
  bool done_ = false;
};

/// Framing: corrupt nodes cast <corrupt, S_k> votes against every HONEST
/// sender. The Dolev-Strong phase must shrug this off — honest nodes only
/// adopt/forward corruption votes for senders already removed from their
/// own trust graph, and f forged votes never reach the f+1 bar on their
/// own — so validity must survive a full corrupt coalition of framers.
class FramerDev final : public Deviation {
 public:
  void extra(QuadNode& self, Round, std::uint32_t offset,
             RoundApi<Msg>& api) override {
    const Context& ctx = self.ctx();
    if (offset != ctx.n + 1) return;  // DS phase, tau = 0
    const Slot k = self.engine().slot();
    const NodeId sender = ctx.sender_of(k);
    if (sender < ctx.f) return;  // only frame honest senders
    if (framed_.empty()) framed_.assign(ctx.n, 0);
    if (framed_[sender]) return;  // corrupt votes are once-ever per pair
    framed_[sender] = 1;
    Msg m;
    m.kind = Kind::kCorrupt;
    m.slot = k;
    m.accused = sender;
    m.sig = ctx.registry->sign(self.id(), corrupt_digest(sender));
    api.multicast(m);
  }

 private:
  std::vector<std::uint8_t> framed_;
};

std::unique_ptr<Deviation> make_quad_deviation(const std::string& role) {
  if (role == "silent") return std::make_unique<SilentDev>();
  if (role == "equivocate") return std::make_unique<EquivocateDev>();
  if (role == "lateprop") return std::make_unique<LatePropDev>();
  if (role == "floodaccuse") return std::make_unique<FloodAccuseDev>();
  if (role == "framer") return std::make_unique<FramerDev>();
  if (role == "conspiracy") {
    // Every corrupt node acts as a colluder; when it happens to be the
    // slot sender, the sender deviation applies.
    struct Both final : Deviation {
      ConspiracySenderDev sender;
      ConspiracyColluderDev colluder;
      bool override_send(QuadNode& self, RoundApi<Msg>& api) override {
        return sender.override_send(self, api);
      }
      bool suppress_engine_sends(Round r, std::uint32_t offset) override {
        return colluder.suppress_engine_sends(r, offset);
      }
      void extra(QuadNode& self, Round r, std::uint32_t offset,
                 RoundApi<Msg>& api) override {
        colluder.extra(self, r, offset, api);
      }
    };
    return std::make_unique<Both>();
  }
  AMBB_CHECK_MSG(false, "unknown quad role " << role);
}

}  // namespace

std::unique_ptr<Adversary<Msg>> make_quad_adversary(const std::string& spec,
                                                    const Context* ctx,
                                                    std::uint64_t seed) {
  if (spec == "silent" || spec == "equivocate" || spec == "conspiracy" ||
      spec == "lateprop" || spec == "floodaccuse" || spec == "framer") {
    // Static strategy = corrupt-first-f schedule + Deviation actors via
    // the byzantine-factory override.
    return adversary::make_static_adversary<Msg>(
        ctx->n, ctx->f, seed, [ctx, spec](NodeId node) {
          return std::make_unique<QuadNode>(node, ctx,
                                            make_quad_deviation(spec));
        });
  }
  AMBB_CHECK_MSG(false, "unknown quad adversary spec '" << spec << "'");
}

}  // namespace ambb::quad
