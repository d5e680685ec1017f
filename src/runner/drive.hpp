// The one driver harness every protocol family runs through.
//
// drive<Family>(cfg) owns everything a multi-shot run needs beyond the
// protocol itself: the default input and sender functions, the shared
// Context fields, the commit log and cost ledger, the delay policy, the
// adversary (a fault schedule or the family's named strategy), the
// simulation set-up, the round loop with its slot-start trace event and
// test hooks, and the RunResult. A family supplies only what differs
// (DESIGN.md "Driver harness"):
//
//   using Msg, Sim;                     message and simulation types
//   Context ctx;                        derives from RunContext
//   static std::vector<std::string> kind_names();
//   static void check(const RunConfig&);   precondition, throws CheckError
//   Family(const RunConfig&, extra...);    per-run keys, graphs, ctx.sched
//   CostPolicy cost() const;
//   unique_ptr<Actor<Msg>> node(NodeId) const;   honest node
//   unique_ptr<Actor<Msg>> seat(NodeId) const;   replica a fault schedule
//                                                wraps on a corrupt seat
//   unique_ptr<Adversary<Msg>> named_adversary(spec, seed) const;
//   void trace_round(Round, offset, Slot) const; per-round phase events
//
// plus any FamilyDefaults constant it redeclares. The trace hook is a
// member of the Family template argument, so the round loop calls it
// directly (no std::function) and skips it entirely on untraced runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "adversary/scheduled.hpp"
#include "adversary/spec.hpp"
#include "common/rng.hpp"
#include "runner/result.hpp"
#include "runner/run_config.hpp"
#include "sim/cost.hpp"
#include "sim/net.hpp"
#include "trace/trace.hpp"

namespace ambb {

/// The per-family constants drive() reads; a family redeclares the ones
/// it changes. Families are not copyable: their Context points into
/// their own members (keys, graphs) and the adversary's seat factory
/// holds the family's address.
struct FamilyDefaults {
  FamilyDefaults() = default;
  FamilyDefaults(const FamilyDefaults&) = delete;
  FamilyDefaults& operator=(const FamilyDefaults&) = delete;

  /// Salt of the default input stream (input = splitmix64(seed^salt + k)).
  static constexpr std::uint64_t kInputSalt = 0x5EEDF00DULL;
  /// Default inputs equal to kBotValue become 0 (phase-king carries bot
  /// as a first-class value, so an honest input must never be bot).
  static constexpr bool kInputAvoidsBot = false;
  /// Salt of the adversary seed (seed ^ salt).
  static constexpr std::uint64_t kAdversarySalt = 0xAD7E25A1ULL;
  /// The simulation's corruption budget is max(f, 1) instead of f.
  static constexpr bool kBudgetAtLeastOne = false;
  /// Rounds run after the last slot (deliveries still in flight).
  static constexpr Round kDrainRounds = 0;
  /// Pre-size the per-round stats and per-slot cost tables, so that
  /// steady-state rounds allocate nothing (test_alloc_hotpath). Only the
  /// linear family does: on Alg-5.2/n=48 the 1 MB up-front reservation
  /// doubled the simulator's delivery-phase time (perfbench alg52_n48,
  /// sim.delivery_ms 13 -> 28-35 ms).
  static constexpr bool kPresize = false;

  void trace_round(Round, std::uint64_t, Slot) const {}
};

template <typename Family, typename... Args>
RunResult drive(const RunConfig& cfg,
                const SimHooks<typename Family::Sim>& hooks = {},
                Args&&... family_args) {
  using Msg = typename Family::Msg;
  Family::check(cfg);

  CommitLog commits(cfg.n);
  commits.reserve(cfg.slots);
  CostLedger ledger(Family::kind_names());
  if (Family::kPresize) ledger.reserve_slots(cfg.slots + 1);

  Family fam(cfg, std::forward<Args>(family_args)...);
  RunContext& rc = fam.ctx;
  rc.n = cfg.n;
  rc.f = cfg.f;
  rc.wire = WireModel{cfg.n, cfg.kappa_bits, cfg.value_bits};
  rc.commits = &commits;
  rc.trace = cfg.trace;
  if (cfg.input_with_log) {
    rc.input_for_slot = [fn = cfg.input_with_log, &commits](Slot s) {
      return fn(s, commits);
    };
  } else if (cfg.input_for_slot) {
    rc.input_for_slot = cfg.input_for_slot;
  } else {
    rc.input_for_slot = [seed = cfg.seed ^ Family::kInputSalt](Slot s) {
      std::uint64_t x = seed + s;
      const Value v = splitmix64(x);
      return Family::kInputAvoidsBot && v == kBotValue ? Value{0} : v;
    };
  }
  rc.sender_of = cfg.sender_of ? cfg.sender_of : [n = cfg.n](Slot s) {
    return static_cast<NodeId>((s - 1) % n);
  };

  const std::uint32_t budget =
      Family::kBudgetAtLeastOne ? std::max<std::uint32_t>(cfg.f, 1) : cfg.f;
  typename Family::Sim sim(cfg.n, budget, &ledger, fam.cost());
  for (NodeId v = 0; v < cfg.n; ++v) sim.set_actor(v, fam.node(v));
  const std::uint64_t per_slot = fam.ctx.sched.rounds_per_slot();
  const std::uint64_t total_rounds =
      static_cast<std::uint64_t>(cfg.slots) * per_slot + Family::kDrainRounds;
  if (Family::kPresize) sim.reserve_rounds(total_rounds);

  const NetPolicy net = make_net_policy(cfg.net, cfg.seed);
  const std::uint64_t adv_seed = cfg.seed ^ Family::kAdversarySalt;
  std::unique_ptr<Adversary<Msg>> adversary;
  if (adversary::is_schedule_spec(cfg.adversary)) {
    adversary::ScheduleEnv<Msg> env;
    env.n = cfg.n;
    env.f = cfg.f;
    env.seed = adv_seed;
    env.horizon = total_rounds;
    env.trace = cfg.trace;
    env.net = net;
    env.honest_factory = [&fam](NodeId v) { return fam.seat(v); };
    adversary = adversary::make_scheduled_adversary<Msg>(cfg.adversary, env);
  } else if (cfg.adversary != "none") {
    adversary = fam.named_adversary(cfg.adversary, adv_seed);
  }
  SimConfig<Msg> sc;
  sc.trace = cfg.trace;
  sc.net = net;
  sc.adversary = adversary.get();
  sim.configure(sc);

  for (std::uint64_t i = 0; i < total_rounds; ++i) {
    if (cfg.trace != nullptr) {
      const std::uint64_t off = i % per_slot;
      const Slot k = static_cast<Slot>(i / per_slot) + 1;
      if (off == 0 && k <= cfg.slots) {
        trace::Event ev;
        ev.kind = trace::EventKind::kSlotStart;
        ev.round = i;
        ev.slot = k;
        ev.node = rc.sender_of(k);
        cfg.trace->on_event(ev);
      }
      fam.trace_round(i, off, k);
    }
    sim.step();
    if (hooks.on_round_end) hooks.on_round_end(sim.now() - 1, sim);
  }
  if (hooks.inspect) hooks.inspect(sim);

  RunResult res;
  res.n = cfg.n;
  res.f = cfg.f;
  res.slots = cfg.slots;
  res.rounds = sim.now();
  res.honest_bits = ledger.honest_bits_total();
  res.adversary_bits = ledger.adversary_bits_total();
  res.honest_msgs = ledger.honest_msgs_total();
  res.per_slot_bits = ledger.per_slot();
  res.kind_names = ledger.kind_names();
  res.per_kind_bits = ledger.per_kind();
  res.round_stats = sim.round_stats();
  res.corrupt.resize(cfg.n);
  for (NodeId v = 0; v < cfg.n; ++v) res.corrupt[v] = sim.is_corrupt(v);
  res.senders.resize(cfg.slots + 1, kNoNode);
  res.sender_inputs.resize(cfg.slots + 1, kBotValue);
  for (Slot s = 1; s <= cfg.slots; ++s) {
    res.senders[s] = rc.sender_of(s);
    res.sender_inputs[s] = rc.input_for_slot(s);
  }
  // Last: an input_with_log input above still reads the live log.
  res.commits = std::move(commits);
  return res;
}

}  // namespace ambb
