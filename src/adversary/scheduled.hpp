// Materialization of a FaultSchedule into an Adversary<Msg> for any
// protocol of the simulator.
//
// The framework is protocol-generic because every primitive acts on the
// traffic surface, not on protocol state:
//
//   - corrupt/erase events run in the strongly adaptive observe_round
//     hook, addressing deliveries by index exactly like the hand-written
//     adversaries did;
//   - actor-level faults (silence / selective / shuffle / stagger) wrap
//     the protocol's own HONEST actor in a FaultedActor that captures its
//     output into a scratch TrafficLog and re-emits a filtered / mutated
//     / delayed version. The wrapped node keeps processing its inbox, so
//     it stays a plausible participant; only its emissions deviate.
//
// Protocol drivers plug in two factories:
//   honest_factory     builds the protocol's honest actor for a node —
//                      required for the generic actor-level faults;
//   byzantine_factory  optional override returning a hand-written
//                      Byzantine actor (the ported legacy adversaries use
//                      this to keep their Deviation-based actors, with
//                      corruption scheduling handled here).
//
// Determinism: all randomness (erase density draws, shuffle permutations)
// flows through Rngs derived from the schedule seed, per rule / per node,
// consumed in simulation order inside one job. Together with the
// engine's submission-order reporting this keeps fuzz sweeps
// byte-identical across --jobs settings.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/fault.hpp"
#include "adversary/fuzz.hpp"
#include "adversary/spec.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/net.hpp"
#include "trace/trace.hpp"

namespace ambb::adversary {

/// Wraps a protocol's honest actor and applies the node's active
/// actor-level faults to its outgoing traffic. Fault composition order
/// (documented contract, also the determinism contract for fuzz):
///   silence   wins over everything: nothing is emitted, pending
///             staggered output due this round is discarded;
///   stagger   buffers the (selective-filtered) output for release in
///             round r + delay; released traffic is emitted verbatim;
///   selective drops deliveries to recipients outside the keep-set
///             (multicasts become per-recipient unicasts);
///   shuffle   expands the surviving output into per-recipient unicasts
///             and permutes the payload assignment (equivocation by
///             misdirection: valid messages, wrong recipients).
template <typename Msg>
class FaultedActor final : public Actor<Msg> {
 public:
  FaultedActor(NodeId self, std::uint32_t n,
               std::unique_ptr<Actor<Msg>> inner,
               std::vector<ActorFault> faults, std::uint64_t seed,
               trace::TraceSink* trace = nullptr)
      : self_(self),
        n_(n),
        inner_(std::move(inner)),
        faults_(std::move(faults)),
        rng_(seed),
        trace_(trace) {}

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>& rushed,
                RoundApi<Msg>& api) override {
    // Trace each actor-level fault as it becomes active (its first
    // round); count carries the fault's last active round.
    for (const auto& a : faults_) {
      if (a.from != r) continue;
      trace::Event ev;
      ev.kind = trace::EventKind::kAdversaryAction;
      ev.round = r;
      ev.node = self_;
      ev.detail = fault_kind_name(a.kind);
      ev.count = a.to;
      trace::emit(trace_, ev);
    }

    // The inner actor always runs: a faulty node still reads its inbox
    // and keeps its state machine plausible; faults act on output only.
    scratch_.reset(n_);
    RoundApi<Msg> capture(self_, n_, &scratch_);
    inner_->on_round(r, inbox, rushed, capture);

    const ActorFault* silence = active(FaultKind::kSilence, r);
    const ActorFault* selective = active(FaultKind::kSelective, r);
    const ActorFault* shuffle = active(FaultKind::kShuffle, r);
    const ActorFault* stagger = active(FaultKind::kStagger, r);

    if (silence != nullptr) {
      drop_pending_due(r);
      return;
    }
    release_pending_due(r, api);

    // Current-round output: filter, then route to buffer or wire.
    std::vector<std::pair<NodeId, const Msg*>> kept;  // expanded deliveries
    std::vector<const typename TrafficLog<Msg>::Record*> whole;  // unfiltered
    for (const auto& rec : scratch_.records()) {
      if (selective == nullptr && !rec.is_multicast()) {
        whole.push_back(&rec);
        kept.emplace_back(rec.to, &rec.msg);
        continue;
      }
      if (selective == nullptr) {
        whole.push_back(&rec);
        for (NodeId v = 0; v < n_; ++v) kept.emplace_back(v, &rec.msg);
        continue;
      }
      if (rec.is_multicast()) {
        for (NodeId v = 0; v < n_; ++v) {
          if (keeps(*selective, v)) kept.emplace_back(v, &rec.msg);
        }
      } else if (keeps(*selective, rec.to)) {
        kept.emplace_back(rec.to, &rec.msg);
      }
    }

    if (stagger != nullptr) {
      for (const auto& [to, m] : kept) {
        pending_.push_back(PendingMsg{r + stagger->delay, to, *m});
      }
      return;
    }
    if (shuffle != nullptr) {
      // Permute the payload assignment over the expanded deliveries.
      std::vector<std::size_t> perm(kept.size());
      for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      rng_.shuffle(perm);
      for (std::size_t i = 0; i < kept.size(); ++i) {
        api.send(kept[i].first, *kept[perm[i]].second);
      }
      return;
    }
    if (selective == nullptr) {
      // Untouched output: preserve the record structure (multicasts stay
      // multicasts — one shared record, free self-copy).
      for (const auto* rec : whole) {
        if (rec->is_multicast()) {
          api.multicast(rec->msg);
        } else {
          api.send(rec->to, rec->msg);
        }
      }
    } else {
      for (const auto& [to, m] : kept) api.send(to, *m);
    }
  }

 private:
  struct PendingMsg {
    Round release;
    NodeId to;
    Msg msg;
  };

  const ActorFault* active(FaultKind kind, Round r) const {
    for (const auto& a : faults_) {
      if (a.kind == kind && a.from <= r && r <= a.to) return &a;
    }
    return nullptr;
  }

  bool keeps(const ActorFault& selective, NodeId to) const {
    return std::find(selective.keep.begin(), selective.keep.end(), to) !=
           selective.keep.end();
  }

  void release_pending_due(Round r, RoundApi<Msg>& api) {
    for (auto& p : pending_) {
      if (p.release <= r) api.send(p.to, p.msg);
    }
    drop_pending_due(r);
  }

  void drop_pending_due(Round r) {
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [r](const PendingMsg& p) {
                                    return p.release <= r;
                                  }),
                   pending_.end());
  }

  NodeId self_;
  std::uint32_t n_;
  std::unique_ptr<Actor<Msg>> inner_;
  std::vector<ActorFault> faults_;
  Rng rng_;
  TrafficLog<Msg> scratch_;      ///< reused per-round capture buffer
  std::vector<PendingMsg> pending_;  ///< staggered output awaiting release
  trace::TraceSink* trace_ = nullptr;
};

/// Adversary driven entirely by a validated FaultSchedule.
template <typename Msg>
class ScheduledAdversary final : public Adversary<Msg> {
 public:
  using ActorFactory = std::function<std::unique_ptr<Actor<Msg>>(NodeId)>;
  /// Extra typed predicate for an erase rule ("proposals only", ...).
  using MsgFilter = std::function<bool(NodeId to, const Msg& m)>;

  /// `schedule` must be validate()d against (n, f) by the caller
  /// (make_scheduled_adversary does). `honest_factory` may be null only
  /// if `byzantine_factory` is provided.
  ScheduledAdversary(FaultSchedule schedule, std::uint32_t n,
                     std::uint64_t seed, ActorFactory honest_factory,
                     ActorFactory byzantine_factory = nullptr)
      : sched_(std::move(schedule)),
        n_(n),
        seed_(seed),
        honest_(std::move(honest_factory)),
        byzantine_(std::move(byzantine_factory)) {
    for (const auto& e : sched_.erasures) {
      typed_.push_back(TypedErase{e, nullptr});
    }
  }

  /// Add an erase rule with a protocol-typed message filter. The rule
  /// must still target a scheduled-corrupt sender (same contract as
  /// validate()).
  void add_erase(EraseEvent ev, MsgFilter filter) {
    typed_.push_back(TypedErase{ev, std::move(filter)});
  }

  /// Forward fault-activation events of generically-faulted actors to a
  /// sink (may be nullptr). Corruptions and erasures are traced by the
  /// Simulation itself.
  void set_trace(trace::TraceSink* trace) { trace_ = trace; }

  const FaultSchedule& schedule() const { return sched_; }

  std::vector<NodeId> initial_corruptions() override {
    std::vector<NodeId> out;
    for (const auto& c : sched_.corruptions) {
      if (c.from == 0) out.push_back(c.node);
    }
    return out;
  }

  std::unique_ptr<Actor<Msg>> actor_for(NodeId node) override {
    if (byzantine_ != nullptr) return byzantine_(node);
    AMBB_CHECK_MSG(honest_ != nullptr,
                   "ScheduledAdversary needs an honest actor factory for "
                   "generic actor-level faults");
    std::vector<ActorFault> mine;
    for (const auto& a : sched_.actor_faults) {
      if (a.node == node) mine.push_back(a);
    }
    std::uint64_t h = seed_ ^ (0xFA017ED5EEDULL + node);
    return std::make_unique<FaultedActor<Msg>>(
        node, n_, honest_(node), std::move(mine), splitmix64(h), trace_);
  }

  void observe_round(Round r, const TrafficView<Msg>& traffic,
                     CorruptionCtl<Msg>& ctl) override {
    // Corruptions first: corrupt(r+1, v) fires now so v's round-(r)
    // traffic is erasable and v is replaced before round r+1.
    for (const auto& c : sched_.corruptions) {
      if (c.from != r + 1 || ctl.is_corrupt(c.node)) continue;
      if (ctl.corruption_budget_left() == 0) continue;  // driver ran f < plan
      ctl.corrupt(c.node);
    }
    for (const auto& te : typed_) {
      if (te.ev.round != r) continue;
      // Per-(rule, round) RNG: erase decisions depend only on the seed
      // and the traffic, never on evaluation order elsewhere.
      std::uint64_t h = seed_ ^ te.ev.salt ^ (0x9E3779B97F4A7C15ULL * (r + 1));
      Rng rng(splitmix64(h));
      const double p = te.ev.density_permille / 1000.0;
      for (std::size_t idx = 0; idx < traffic.size(); ++idx) {
        const auto d = traffic[idx];
        if (d.from != te.ev.sender) continue;
        if (d.to % te.ev.to_mod != te.ev.to_rem) continue;
        if (te.filter != nullptr && !te.filter(d.to, d.msg)) continue;
        if (te.ev.density_permille < kDensityAll && !rng.chance(p)) continue;
        if (!ctl.is_corrupt(te.ev.sender)) break;  // corruption was skipped
        ctl.erase(idx);
      }
    }
    // Timing faults: the network adversary defers deliveries of ANY
    // sender (no corruption needed) — possible only under a bounded or
    // async policy; validate + make_scheduled_adversary reject timing
    // schedules on lockstep runs before we get here.
    for (const auto& t : sched_.net_faults) {
      if (r < t.from || r > t.to) continue;
      const std::uint32_t bound = ctl.net().max_extra();
      // Per-(rule, round) RNG, same keying idiom as erase rules.
      std::uint64_t h =
          seed_ ^ t.salt ^ (0xD1B54A32D192ED03ULL * (r + 1));
      Rng rng(splitmix64(h));
      for (std::size_t idx = 0; idx < traffic.size(); ++idx) {
        if (traffic[idx].from != t.sender) continue;
        const std::uint32_t extra =
            t.kind == NetFaultKind::kDelay
                ? t.extra
                : static_cast<std::uint32_t>(
                      rng.uniform(static_cast<std::uint64_t>(bound) + 1));
        if (extra == 0) continue;
        ctl.delay(idx, extra);
      }
    }
  }

 private:
  struct TypedErase {
    EraseEvent ev;
    MsgFilter filter;
  };

  FaultSchedule sched_;
  std::uint32_t n_;
  std::uint64_t seed_;
  ActorFactory honest_;
  ActorFactory byzantine_;
  std::vector<TypedErase> typed_;
  trace::TraceSink* trace_ = nullptr;
};

/// The static named strategies of every family: nodes 0..f-1 are corrupt
/// from round 0, each replaced by the hand-written Byzantine actor
/// `byzantine(node)`.
template <typename Msg>
std::unique_ptr<ScheduledAdversary<Msg>> make_static_adversary(
    std::uint32_t n, std::uint32_t f, std::uint64_t seed,
    typename ScheduledAdversary<Msg>::ActorFactory byzantine) {
  FaultSchedule s;
  for (NodeId v = 0; v < f; ++v) s.corruptions.push_back(CorruptEvent{0, v});
  return std::make_unique<ScheduledAdversary<Msg>>(std::move(s), n, seed,
                                                   nullptr,
                                                   std::move(byzantine));
}

/// Everything a driver supplies to instantiate a framework adversary.
template <typename Msg>
struct ScheduleEnv {
  std::uint32_t n = 0;
  std::uint32_t f = 0;
  std::uint64_t seed = 0;
  Round horizon = 0;  ///< total rounds the driver will execute
  typename ScheduledAdversary<Msg>::ActorFactory honest_factory;
  trace::TraceSink* trace = nullptr;  ///< optional event sink, not owned
  /// The run's delay policy: gates timing faults (delay/reorder are
  /// rejected under lockstep) and scales fuzz-generated timing faults to
  /// the policy bound.
  NetPolicy net{};
};

/// Build the adversary for any framework spec ("sched:..." or
/// "fuzz[:profile]"). Parses / generates, validates against (n, f) and
/// materializes. Throws CheckError on malformed or budget-violating
/// specs, and on timing faults under a lockstep policy.
template <typename Msg>
std::unique_ptr<ScheduledAdversary<Msg>> make_scheduled_adversary(
    const std::string& spec, const ScheduleEnv<Msg>& env) {
  AMBB_CHECK(env.n >= 1 && env.f < env.n);
  FaultSchedule s;
  if (is_fuzz_spec(spec)) {
    std::uint64_t h =
        env.seed + 0x9E3779B97F4A7C15ULL * (fuzz_profile(spec) + 1);
    // Under lockstep max_extra() is 0 and the generator emits no timing
    // faults — and consumes no extra RNG draws, so lockstep fuzz
    // schedules are byte-identical to the pre-scheduler generator.
    s = generate_schedule(env.n, env.f, env.horizon, splitmix64(h),
                          env.net.max_extra());
  } else {
    s = parse_schedule_spec(spec);
  }
  validate(s, env.n, env.f);
  AMBB_CHECK_MSG(s.net_faults.empty() || !env.net.lockstep(),
                 "schedule uses delay/reorder timing faults but the net "
                 "policy is lockstep — run with --net bounded:<delta> or "
                 "async[:cap]");
  auto adv = std::make_unique<ScheduledAdversary<Msg>>(
      std::move(s), env.n, env.seed, env.honest_factory);
  adv->set_trace(env.trace);
  return adv;
}

}  // namespace ambb::adversary
