#include "bb/phase_king.hpp"

#include <map>

#include "adversary/scheduled.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "runner/drive.hpp"

namespace ambb::pk {

std::vector<std::string> kind_names() {
  return {"send", "r1", "r2", "king"};
}

std::uint64_t size_bits(const Msg& m, const WireModel& wire) {
  // header (kind + slot + epoch reused as phase) + bot flag + value
  return wire.header_bits() + 1 + (m.has_value ? wire.value_bits : 0);
}

namespace {

/// Value domain including bot; kBotValue is the in-memory carrier of bot.
struct Tally {
  std::map<Value, std::uint32_t> counts;

  void add(const Msg& m) {
    counts[m.has_value ? m.value : kBotValue] += 1;
  }
  /// Most frequent value and its count (ties: smaller value wins).
  std::pair<Value, std::uint32_t> top() const {
    Value best = kBotValue;
    std::uint32_t best_c = 0;
    for (const auto& [v, c] : counts) {
      if (c > best_c) {
        best = v;
        best_c = c;
      }
    }
    return {best, best_c};
  }
  /// The unique value with support >= quorum, else bot (uniqueness is
  /// guaranteed for quorum > n/2).
  Value with_quorum(std::uint32_t quorum) const {
    for (const auto& [v, c] : counts) {
      if (c >= quorum) return v;
    }
    return kBotValue;
  }
};

Msg make_msg(Kind kind, Slot slot, std::uint32_t phase, Value v) {
  Msg m;
  m.kind = kind;
  m.slot = slot;
  m.phase = phase;
  m.has_value = v != kBotValue;
  if (m.has_value) m.value = v;
  return m;
}

Value msg_value(const Msg& m) { return m.has_value ? m.value : kBotValue; }

class Deviation {
 public:
  virtual ~Deviation() = default;
  virtual bool silent() const { return false; }
  virtual bool equivocate_send() const { return false; }
  virtual bool confuse() const { return false; }
};

class PkNode final : public Actor<Msg> {
 public:
  PkNode(NodeId id, const Context* ctx, std::unique_ptr<Deviation> dev,
         std::uint64_t seed)
      : id_(id), ctx_(ctx), dev_(std::move(dev)), rng_(seed ^ (id + 1)) {}

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>& rushed,
                RoundApi<Msg>& api) override {
    (void)rushed;
    const Schedule& sched = ctx_->sched;
    const Slot k = sched.slot_of(r);
    const std::uint32_t off = sched.offset_of(r);
    const std::uint32_t n = ctx_->n;
    const std::uint32_t f = ctx_->f;
    const std::uint32_t quorum = n - f;

    if (k != cur_slot_) {
      cur_slot_ = k;
      v_ = kBotValue;
      pending_ = false;
    }
    if (dev_ != nullptr && dev_->silent()) return;

    if (off == 0) {
      if (ctx_->sender_of(k) == id_) {
        const Value input = ctx_->input_for_slot(k);
        if (dev_ != nullptr && dev_->equivocate_send()) {
          for (NodeId u = 0; u < n; ++u) {
            api.send(u, make_msg(Kind::kSend, k, 0,
                                 u % 2 == 0 ? 0xAAAA : 0xBBBB));
          }
        } else {
          multicast(api, make_msg(Kind::kSend, k, 0, input));
        }
        v_ = input;
      }
      return;
    }

    const std::uint32_t body = off - 1;  // 0-based within the phase block
    const std::uint32_t p = body / 3;
    const std::uint32_t step = body % 3;

    // Apply the pending king decision of the previous phase.
    if (pending_ && step == 0) {
      Value king_value = kBotValue;
      for (const auto& env : inbox) {
        if (env.msg().kind == Kind::kKing && env.msg().slot == k &&
            env.msg().phase == pending_phase_ &&
            env.from == pending_phase_ /* king of phase p is node p */) {
          king_value = msg_value(env.msg());
          break;
        }
      }
      v_ = pending_cstar_ >= quorum ? pending_wstar_ : king_value;
      pending_ = false;
    }

    if (off == sched.rounds_per_slot() - 1) {
      // Final round: the last king's message was just applied; commit.
      if (!ctx_->commits->has(id_, k)) {
        ctx_->commits->record(id_, k, v_, r);
        trace::Event ev;
        ev.kind = trace::EventKind::kSlotCommit;
        ev.round = r;
        ev.slot = k;
        ev.node = id_;
        ev.value = v_;
        trace::emit(ctx_->trace, ev);
      }
      return;
    }

    switch (step) {
      case 0: {  // R1: pick up the sender value (phase 0), multicast V
        if (p == 0) {
          for (const auto& env : inbox) {
            if (env.msg().kind == Kind::kSend && env.msg().slot == k &&
                env.from == ctx_->sender_of(k)) {
              v_ = msg_value(env.msg());
              break;
            }
          }
        }
        multicast(api, make_msg(Kind::kR1, k, p, v_));
        break;
      }
      case 1: {  // R2: compute pref from R1, multicast it
        Tally t;
        for (const auto& env : inbox) {
          if (env.msg().kind == Kind::kR1 && env.msg().slot == k &&
              env.msg().phase == p) {
            t.add(env.msg());
          }
        }
        multicast(api, make_msg(Kind::kR2, k, p, t.with_quorum(quorum)));
        break;
      }
      case 2: {  // R3: compute (w*, c*) from R2; the king speaks
        Tally t;
        for (const auto& env : inbox) {
          if (env.msg().kind == Kind::kR2 && env.msg().slot == k &&
              env.msg().phase == p) {
            t.add(env.msg());
          }
        }
        auto [wstar, cstar] = t.top();
        pending_ = true;
        pending_phase_ = p;
        pending_wstar_ = wstar;
        pending_cstar_ = cstar;
        if (id_ == p) {  // king of phase p is node p
          multicast(api, make_msg(Kind::kKing, k, p, wstar));
        }
        break;
      }
    }
  }

 private:
  void multicast(RoundApi<Msg>& api, const Msg& m) {
    if (dev_ != nullptr && dev_->confuse()) {
      // Byzantine scatter: a different claim to every recipient.
      for (NodeId u = 0; u < ctx_->n; ++u) {
        Msg x = m;
        switch (rng_.uniform(3)) {
          case 0: x.has_value = true; x.value = 0xAAAA; break;
          case 1: x.has_value = true; x.value = 0xBBBB; break;
          default: x.has_value = false; x.value = 0; break;
        }
        api.send(u, x);
      }
      return;
    }
    api.multicast(m);
  }

  NodeId id_;
  const Context* ctx_;
  std::unique_ptr<Deviation> dev_;
  Rng rng_;
  Slot cur_slot_ = 0;
  Value v_ = kBotValue;
  bool pending_ = false;
  std::uint32_t pending_phase_ = 0;
  Value pending_wstar_ = kBotValue;
  std::uint32_t pending_cstar_ = 0;
};

class SilentDev final : public Deviation {
  bool silent() const override { return true; }
};
class EquivDev final : public Deviation {
  bool equivocate_send() const override { return true; }
  bool confuse() const override { return true; }
};
class ConfuseDev final : public Deviation {
  bool confuse() const override { return true; }
};

std::unique_ptr<Deviation> make_pk_deviation(const std::string& role) {
  if (role == "silent") return std::make_unique<SilentDev>();
  if (role == "equivocate") return std::make_unique<EquivDev>();
  if (role == "confuse") return std::make_unique<ConfuseDev>();
  AMBB_CHECK_MSG(false, "unknown pk role " << role);
}

/// Phase-king as a drive() family (runner/drive.hpp).
struct PkFamily : FamilyDefaults {
  using Msg = pk::Msg;
  using Sim = pk::Sim;
  static constexpr bool kInputAvoidsBot = true;
  static constexpr bool kBudgetAtLeastOne = true;

  static std::vector<std::string> kind_names() { return pk::kind_names(); }

  static void check(const RunConfig& cfg) {
    AMBB_CHECK_MSG(3 * cfg.f < cfg.n, "phase king requires f < n/3");
  }

  explicit PkFamily(const RunConfig& cfg) : run_seed(cfg.seed) {
    ctx.sched = Schedule{2 + 3ull * (cfg.f + 1)};
  }

  CostPolicy cost() const { return CostPolicy{ctx.wire, ctx.sched}; }

  std::unique_ptr<Actor<Msg>> node(NodeId v) const {
    return std::make_unique<PkNode>(v, &ctx, nullptr, run_seed);
  }
  std::unique_ptr<Actor<Msg>> seat(NodeId v) const { return node(v); }

  /// "silent" | "equivocate" | "confuse" on the first f nodes.
  std::unique_ptr<Adversary<Msg>> named_adversary(const std::string& spec,
                                                  std::uint64_t seed) const {
    return adversary::make_static_adversary<Msg>(
        ctx.n, ctx.f, seed, [c = &ctx, spec, s = run_seed](NodeId v) {
          return std::make_unique<PkNode>(v, c, make_pk_deviation(spec), s);
        });
  }

  /// A "king-phase" event at the start of each phase p, naming king p.
  void trace_round(Round r, std::uint64_t off, Slot k) const {
    if (off == 0 || (off - 1) % 3 != 0 || (off - 1) / 3 > ctx.f) return;
    const auto p = static_cast<std::uint32_t>((off - 1) / 3);
    trace::Event ev;
    ev.kind = trace::EventKind::kEpochPhase;
    ev.round = r;
    ev.slot = k;
    ev.epoch = p;
    ev.node = static_cast<NodeId>(p);
    ev.detail = "king-phase";
    trace::emit(ctx.trace, ev);
  }

  std::uint64_t run_seed;  ///< each PkNode's tie-break stream
  Context ctx;
};

}  // namespace

RunResult run_phase_king(const RunConfig& cfg) {
  return drive<PkFamily>(cfg);
}

}  // namespace ambb::pk
