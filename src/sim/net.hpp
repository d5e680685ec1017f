// Lock-step synchronous network simulator (the paper's model, Section 3).
//
// Time advances in rounds. In round r every node emits messages; all
// surviving messages are delivered at the beginning of round r+1. The
// adversary is rushing (Byzantine actors step after honest actors and can
// observe the honest round-r traffic before sending their own) and
// strongly adaptive (after all traffic of round r is fixed, it may corrupt
// additional nodes and erase messages those nodes sent in round r, i.e.
// after-the-fact message removal [Abraham et al.]).
//
// The simulator is templated on the protocol's message type: each protocol
// family defines one message struct plus a SizeModel mapping messages to
// exact wire bits and accounting kinds.
//
// Traffic representation: a round's traffic is a vector of TrafficRecords.
// A unicast is one record; a multicast is ALSO one record — the payload is
// stored once and fanned out to the n per-node inboxes only at delivery
// time, as a (sender, const Msg*) pair. The adversary still addresses
// *individual* (sender, recipient) deliveries: record i with fanout c_i
// owns the half-open delivery-index range [base_i, base_i + c_i), where
// base_i = sum of earlier fanouts, and a multicast's deliveries appear in
// recipient order 0..n-1. This enumerates deliveries in exactly the order
// the former eager-copy representation enumerated envelopes, so erase
// indices (and therefore seeded adversary decisions) are unchanged.
//
// Event-driven activation (DESIGN.md §17): an actor reports the earliest
// round at which it must run with an empty inbox (Actor::wake_round). Each
// phase calls, in ascending node-id order, only actors whose inbox is
// non-empty or whose wake round is due; the default wake round 0 means
// "every round", so actors that do not opt in run exactly as before.
//
// Event-queue scheduler (DESIGN.md §16): delivery is driven by a
// deterministic event queue parameterized by a NetPolicy
// (sim/net_policy.hpp). Under the default lockstep policy the queue
// stays empty and the delivery phase is the classic synchronous fan-out
// — byte-identical to the pre-scheduler simulator. Under bounded/async
// policies, each surviving delivery may be deferred by extra rounds
// (policy draw + adversary delay() calls, clamped to the policy bound):
// the payload is copied into a due-round bucket and delivered, before
// that round's fresh lock-step traffic, in emission order. Accounting
// is charged at EMISSION time (the sender paid to transmit; the network
// holding a message does not refund it), and erased deliveries never
// enter the queue — erasure always wins over delay.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/cost.hpp"
#include "sim/net_policy.hpp"
#include "sim/stats.hpp"
#include "trace/trace.hpp"

namespace ambb {

/// One message as seen by its recipient. The payload lives in the
/// simulator's traffic log for the previous round and is shared by all
/// recipients of a multicast; it stays valid for the whole round.
template <typename Msg>
struct Delivery {
  NodeId from = kNoNode;
  const Msg* payload = nullptr;

  const Msg& msg() const { return *payload; }
};

/// One round of emitted traffic as shared records.
template <typename Msg>
class TrafficLog {
 public:
  struct Record {
    NodeId from = kNoNode;
    NodeId to = kNoNode;  ///< kNoNode encodes "multicast to all n"
    Msg msg{};
    std::size_t base = 0;  ///< first delivery index owned by this record

    bool is_multicast() const { return to == kNoNode; }
  };

  TrafficLog() : arena_(std::make_unique<Arena>()), records_(arena_.get()) {}

  /// Round boundary: drop all records and rewind the arena wholesale. In
  /// steady state (high-water capacity reached) this performs zero heap
  /// operations.
  void reset(std::uint32_t n) {
    n_ = n;
    records_.reset();
    arena_->reset();
    deliveries_ = 0;
  }

  void add_unicast(NodeId from, NodeId to, const Msg& m) {
    // Emplaced, not pushed: the payload is copied exactly once, straight
    // into arena storage (Msg can be large; the hot path sends millions).
    records_.emplace_back(from, to, m, deliveries_);
    deliveries_ += 1;
  }

  void add_multicast(NodeId from, const Msg& m) {
    records_.emplace_back(from, kNoNode, m, deliveries_);
    deliveries_ += n_;
  }

  std::uint32_t n() const { return n_; }
  std::size_t deliveries() const { return deliveries_; }
  const ArenaVector<Record>& records() const { return records_; }

  /// Allocation behaviour of the backing arena (tests + diagnostics).
  const Arena::Stats& arena_stats() const { return arena_->stats(); }

  std::size_t fanout(const Record& rec) const {
    return rec.is_multicast() ? n_ : 1;
  }

  /// Index of the record owning delivery index d.
  std::size_t record_of(std::size_t d) const {
    AMBB_CHECK(d < deliveries_);
    // Bases are strictly increasing; find the last base <= d.
    auto it = std::upper_bound(
        records_.begin(), records_.end(), d,
        [](std::size_t x, const Record& r) { return x < r.base; });
    return static_cast<std::size_t>((it - records_.begin()) - 1);
  }

  NodeId recipient_of(const Record& rec, std::size_t d) const {
    return rec.is_multicast() ? static_cast<NodeId>(d - rec.base) : rec.to;
  }

 private:
  std::uint32_t n_ = 0;
  /// The arena sits behind unique_ptr so the log stays movable (swap in
  /// Simulation::step) without invalidating records_'s arena pointer.
  /// Declared before records_: members destroy in reverse order, and the
  /// records must die before their backing storage.
  std::unique_ptr<Arena> arena_;
  ArenaVector<Record> records_;
  std::size_t deliveries_ = 0;
};

/// Read-only per-delivery view of (a prefix of) a TrafficLog, used for the
/// rushing adversary and observe_round. Indexing is by delivery index (see
/// the header comment); access goes through the log pointer, so the view
/// stays valid while Byzantine actors append to the same log.
///
/// THREAD-SAFETY: logically const access is NOT thread-safe. operator[]
/// advances the mutable cursor_ memoization, so two threads indexing the
/// SAME view instance race on it — a "read-only" view is a writer. This
/// is by design (the cursor makes sequential scans O(1) amortized); the
/// consequence for the experiment engine (src/engine/) is its isolation
/// rule: concurrent jobs must each own their own Simulation and must
/// never share one, nor any TrafficView derived from one. Passing a COPY
/// of a view to another thread would be safe (each copy carries a private
/// cursor; the static_assert below keeps copies trivial), but sharing one
/// instance is not.
template <typename Msg>
class TrafficView {
 public:
  struct DeliveryRef {
    NodeId from;
    NodeId to;
    const Msg& msg;
  };

  TrafficView() = default;
  TrafficView(const TrafficLog<Msg>* log, std::size_t limit)
      : log_(log), limit_(limit) {}

  std::size_t size() const { return limit_; }
  bool empty() const { return limit_ == 0; }

  DeliveryRef operator[](std::size_t d) const {
    AMBB_CHECK(d < limit_);
    const auto& recs = log_->records();
    // Cursor makes sequential scans O(1) amortized instead of O(log R).
    if (cursor_ >= recs.size() || d < recs[cursor_].base ||
        d >= recs[cursor_].base + log_->fanout(recs[cursor_])) {
      cursor_ = log_->record_of(d);
    }
    const auto& rec = recs[cursor_];
    return DeliveryRef{rec.from, log_->recipient_of(rec, d), rec.msg};
  }

 private:
  const TrafficLog<Msg>* log_ = nullptr;
  std::size_t limit_ = 0;
  mutable std::size_t cursor_ = 0;
};

// Enforce the thread-safety contract above as far as the type system
// can: a TrafficView must stay trivially copyable (copy = private cursor,
// no shared mutable state behind the copy), so that per-thread COPIES
// remain the safe way to hand traffic to concurrent readers. If someone
// adds state that breaks this (a lock, a shared cache), this fires and
// the engine's job-isolation rule must be revisited.
static_assert(std::is_trivially_copyable_v<TrafficView<int>>,
              "TrafficView copies must stay trivial: a shared instance is "
              "not thread-safe (mutable cursor_), per-thread copies are");

/// Sending interface handed to an actor for one round.
template <typename Msg>
class RoundApi {
 public:
  RoundApi(NodeId self, std::uint32_t n, TrafficLog<Msg>* out)
      : self_(self), n_(n), out_(out) {}

  NodeId self() const { return self_; }
  std::uint32_t n() const { return n_; }

  void send(NodeId to, const Msg& m) {
    AMBB_CHECK(to < n_);
    out_->add_unicast(self_, to, m);
  }

  /// Send to all n nodes. Stored as ONE shared record; the self-copy is
  /// delivered but not charged: the paper's multicast costs n-1
  /// transmissions.
  void multicast(const Msg& m) { out_->add_multicast(self_, m); }

 private:
  NodeId self_;
  std::uint32_t n_;
  TrafficLog<Msg>* out_;
};

/// Actor::wake_round value for "only when the inbox is non-empty".
inline constexpr Round kNeverWake = std::numeric_limits<Round>::max();

/// A node's protocol logic. One Actor instance persists across the entire
/// multi-shot execution (protocols carry cross-slot state).
template <typename Msg>
class Actor {
 public:
  virtual ~Actor() = default;

  /// Called once per round with the messages delivered at the beginning of
  /// this round. For Byzantine actors, `rushed_traffic` additionally holds
  /// the traffic already emitted by honest nodes in this same round
  /// (rushing adversary); it is empty for honest actors.
  virtual void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                        const TrafficView<Msg>& rushed_traffic,
                        RoundApi<Msg>& api) = 0;

  /// Queried right after each on_round call: the earliest later round at
  /// which this actor must run even if its inbox is empty. The simulator
  /// skips the actor in every round before it whose inbox is empty. Sound
  /// only if each skipped call would have sent nothing, traced nothing,
  /// and left state that a later call reproduces (DESIGN.md §17). The
  /// default 0 means "every round"; actors that read `rushed_traffic`
  /// must keep it, since rushed traffic is not an inbox.
  virtual Round wake_round() const { return 0; }
};

/// Control surface for the strongly adaptive corruption step.
template <typename Msg>
class CorruptionCtl {
 public:
  virtual ~CorruptionCtl() = default;

  /// Corrupt `node` now (end of the current round). Fails if the
  /// corruption budget f is exhausted.
  virtual void corrupt(NodeId node) = 0;

  /// Erase one (sender, recipient) delivery of the current round, by its
  /// delivery index. Only deliveries whose sender is (now) corrupt may be
  /// erased — after-the-fact removal.
  virtual void erase(std::size_t delivery_index) = 0;

  /// Defer one delivery of the current round by `extra_rounds` past the
  /// lock-step latency. Timing is a NETWORK power, not a corruption: any
  /// sender's traffic may be delayed, honest or not, and no budget is
  /// consumed — but the policy bound still applies (the total extra
  /// delay of a delivery is clamped to Δ under bounded and to the
  /// eventual-delivery cap under async). Rejected under lockstep.
  /// Erasing the same delivery wins: an erased message is never queued.
  virtual void delay(std::size_t delivery_index,
                     std::uint32_t extra_rounds) = 0;

  /// The delay policy in force (lockstep when unconfigured), so
  /// adversaries can scale their timing faults to the policy bound.
  virtual const NetPolicy& net() const = 0;

  virtual bool is_corrupt(NodeId node) const = 0;
  virtual std::uint32_t corruption_budget_left() const = 0;
};

/// The adversary: chooses corruptions, supplies Byzantine actors, and may
/// exercise the strongly adaptive hook each round.
template <typename Msg>
class Adversary {
 public:
  virtual ~Adversary() = default;

  virtual std::vector<NodeId> initial_corruptions() = 0;

  /// Byzantine replacement logic for a corrupted node.
  virtual std::unique_ptr<Actor<Msg>> actor_for(NodeId node) = 0;

  /// Strongly adaptive step: observe all round-r traffic (per delivery),
  /// optionally corrupt more nodes and erase their round-r deliveries.
  virtual void observe_round(Round r, const TrafficView<Msg>& traffic,
                             CorruptionCtl<Msg>& ctl) {
    (void)r;
    (void)traffic;
    (void)ctl;
  }
};

/// Function-object accounting policy. Kept as the default Simulation
/// policy for toy harnesses and tests; protocol drivers define concrete
/// policy structs with inlineable members instead (the policy is evaluated
/// once per traffic record — once per multicast, once per unicast — never
/// per delivery).
template <typename Msg>
struct Accounting {
  std::function<std::uint64_t(const Msg&)> size_bits;
  std::function<MsgKind(const Msg&)> kind;
  std::function<Slot(const Msg&, Round sent_round)> slot;
};

/// Everything a Simulation needs beyond its constructor arguments, in
/// one order-insensitive value. Apply with Simulation::configure() after
/// installing the honest actors and before the first step(); an
/// unconfigured Simulation runs with the defaults below (untraced,
/// lockstep, no adversary).
template <typename Msg>
struct SimConfig {
  /// Trace sink (may be nullptr = untraced). The simulator emits one
  /// kRoundEnd per step() plus a kAdversaryAction for every corruption,
  /// erasure and delay; configure() installs the sink before applying
  /// initial corruptions, so those are traced too. Pure observation:
  /// the execution is bit-identical with or without a sink.
  trace::TraceSink* trace = nullptr;
  /// Message-delay policy (sim/net_policy.hpp). Drivers build it with
  /// make_net_policy(spec, run_seed) so the bounded draw is seeded.
  NetPolicy net{};
  /// The adversary (may be nullptr). Its initial corruptions are applied
  /// inside configure(), replacing the corrupted nodes' actors.
  Adversary<Msg>* adversary = nullptr;
};

template <typename Msg, typename Policy = Accounting<Msg>>
class Simulation final : CorruptionCtl<Msg> {
 public:
  Simulation(std::uint32_t n, std::uint32_t f, CostLedger* ledger,
             Policy policy)
      : n_(n),
        f_(f),
        ledger_(ledger),
        policy_(std::move(policy)),
        corrupt_(n, 0),
        actors_(n),
        wake_(n, 0),
        inbox_arena_(std::make_unique<Arena>()),
        inboxes_(n) {
    AMBB_CHECK(n >= 1 && f < n);
    AMBB_CHECK(ledger != nullptr);
    for (auto& ib : inboxes_) ib.set_arena(inbox_arena_.get());
  }

  /// Install the honest actor for every node. Do this before
  /// configure(): binding the adversary replaces the actors of initially
  /// corrupted nodes.
  void set_actor(NodeId node, std::unique_ptr<Actor<Msg>> actor) {
    AMBB_CHECK(node < n_);
    actors_[node] = std::move(actor);
    wake_[node] = 0;
  }

  /// Apply the full run configuration in one order-insensitive call —
  /// THE setup entry point (trace sink, delay policy, adversary). Must
  /// run before the first step() and at most once: the scheduler's
  /// determinism argument assumes the policy never changes mid-run.
  void configure(const SimConfig<Msg>& cfg) {
    AMBB_CHECK_MSG(!configured_ && round_ == 0,
                   "Simulation::configure: must be called at most once, "
                   "before the first step()");
    configured_ = true;
    trace_ = cfg.trace;
    net_ = cfg.net;
    adversary_ = cfg.adversary;
    if (adversary_ != nullptr) {
      for (NodeId v : adversary_->initial_corruptions()) do_corrupt(v);
    }
  }

  /// The delay policy in force.
  const NetPolicy& net() const override { return net_; }

  Round now() const { return round_; }

  /// Introspection for tests: the actor currently installed for `node`
  /// (the honest protocol node, or the adversary's replacement).
  Actor<Msg>* actor(NodeId node) const {
    AMBB_CHECK(node < n_);
    return actors_[node].get();
  }

  std::uint32_t n() const { return n_; }
  std::uint32_t f() const { return f_; }
  std::uint32_t corrupt_count() const { return corrupt_count_; }
  bool is_corrupt(NodeId node) const override {
    AMBB_CHECK(node < n_);
    return corrupt_[node] != 0;
  }
  std::uint32_t corruption_budget_left() const override {
    return f_ - corrupt_count_;
  }

  /// One RoundStats per executed round.
  const std::vector<RoundStats>& round_stats() const { return round_stats_; }

  /// Pre-size the per-round stats buffer; drivers that know the total
  /// round count call this so steady-state rounds never regrow it.
  void reserve_rounds(std::uint64_t rounds) {
    round_stats_.reserve(static_cast<std::size_t>(rounds));
  }

  /// Running aggregate of all executed rounds, folded via accumulate()
  /// as each step() completes (same totals as summarize(round_stats())).
  const RoundStatsSummary& summary() const { return summary_; }

  /// Execute one lock-step round.
  void step() {
    using Clock = std::chrono::steady_clock;
    RoundStats st;
    st.round = round_;
    const std::uint32_t corrupt_before = corrupt_count_;
    const std::uint64_t honest_bits_before = ledger_->honest_bits_total();
    const std::uint64_t adv_bits_before = ledger_->adversary_bits_total();

    cur_.reset(n_);
    erased_.clear();
    delayed_.clear();
    if (roster_dirty_) rebuild_roster();

    // 1. Honest actors act on their inboxes (or a due wake round).
    auto t0 = Clock::now();
    for (NodeId v : honest_ids_) {
      st.activations += activate(v, TrafficView<Msg>{});
    }
    const std::size_t honest_deliveries = cur_.deliveries();
    auto t1 = Clock::now();

    // 2. Byzantine actors act, rushing: they see the honest traffic. The
    //    view reads through the log, so it survives the appends Byzantine
    //    actors make to the same log.
    const TrafficView<Msg> rushed(&cur_, honest_deliveries);
    for (NodeId v : corrupt_ids_) {
      st.activations += activate(v, rushed);
    }
    auto t2 = Clock::now();

    // 3. Strongly adaptive step: adversary inspects all round traffic,
    //    may corrupt senders and erase their deliveries.
    if (adversary_ != nullptr) {
      const TrafficView<Msg> all(&cur_, cur_.deliveries());
      adversary_->observe_round(round_, all, *this);
    }
    if (!erased_.empty()) {
      std::sort(erased_.begin(), erased_.end());
      erased_.erase(std::unique(erased_.begin(), erased_.end()),
                    erased_.end());
    }
    auto t3 = Clock::now();

    // 4. Charge costs: the policy runs once per RECORD, the charge covers
    //    all its surviving non-free deliveries at once. A sender corrupted
    //    during step 3 is corrupt for accounting purposes: its bits are
    //    not honest bits.
    {
      auto er = erased_.begin();
      for (const auto& rec : cur_.records()) {
        const std::size_t fanout = cur_.fanout(rec);
        std::uint64_t charged = fanout;
        if (rec.is_multicast() && !erased_covers(rec.base + rec.from)) {
          charged -= 1;  // the free self-copy (unless itself erased)
        }
        while (er != erased_.end() && *er < rec.base + fanout) {
          charged -= 1;
          ++er;
        }
        if (charged == 0) continue;
        ledger_->charge_n(policy_.slot(rec.msg, round_),
                          policy_.kind(rec.msg), policy_.size_bits(rec.msg),
                          !corrupt_[rec.from], charged);
      }
    }
    auto t4 = Clock::now();

    // 5. Deliver surviving messages for the next round. Inboxes reference
    //    the record payloads, so the log must outlive the next round's
    //    sends: double-buffer and swap instead of clearing in place.
    //    The inbox vectors share one arena, rewound wholesale here (the
    //    old contents were consumed in steps 1-2); each vector remembers
    //    its high-water size, so refilling is one arena bump per inbox.
    //    Only inboxes that actually received something last round need a
    //    reset — deliver_to tracked them (an inbox holds arena storage iff
    //    it was pushed to since its last reset, so nothing dangles when
    //    the arena rewinds).
    for (NodeId v : touched_inboxes_) inboxes_[v].reset();
    touched_inboxes_.clear();
    inbox_arena_->reset();
    //    Event queue first: deliveries deferred by earlier rounds that
    //    mature now land BEFORE this round's fresh lock-step traffic, in
    //    emission order (buckets are filled round by round). The bucket
    //    is moved into pending_ready_, which stays untouched until the
    //    next delivery phase — the same lifetime rule that lets inboxes
    //    reference prev_'s arena. Under lockstep the queue is provably
    //    empty and this block never runs.
    if (!pending_.empty()) {
      auto due = pending_.find(round_ + 1);
      if (due != pending_.end()) {
        pending_ready_ = std::move(due->second);
        pending_.erase(due);
        for (const PendingMsg& pm : pending_ready_) {
          auto& ib = inboxes_[pm.to];
          if (ib.empty()) touched_inboxes_.push_back(pm.to);
          ib.push_back(Delivery<Msg>{pm.from, &pm.msg});
        }
      }
    }
    //  Then this round's traffic, per delivery in emission order:
    //  combine the policy's seeded base draw with any adversary delay()
    //  requests (summed, then clamped to the policy bound) and either
    //  deliver next round or copy the payload into the due-round bucket.
    //  Erasure wins over delay. Under lockstep every extra is 0 and
    //  delayed_ is empty, so this is the classic synchronous fan-out.
    if (!delayed_.empty()) std::sort(delayed_.begin(), delayed_.end());
    auto er = erased_.begin();
    auto dl = delayed_.begin();
    for (const auto& rec : cur_.records()) {
      const std::size_t fanout = cur_.fanout(rec);
      for (std::size_t d = rec.base; d < rec.base + fanout; ++d) {
        if (er != erased_.end() && *er == d) {
          ++er;
          while (dl != delayed_.end() && dl->first == d) ++dl;
          continue;
        }
        std::uint64_t extra = net_.base_extra(round_, d);
        while (dl != delayed_.end() && dl->first == d) {
          extra += dl->second;
          ++dl;
        }
        const std::uint32_t x = net_.clamp_extra(extra);
        const NodeId v = cur_.recipient_of(rec, d);
        if (x == 0) {
          deliver_to(v, rec);
          continue;
        }
        const Round land = round_ + 1 + x;
        pending_[land].push_back(PendingMsg{rec.from, v, rec.msg});
        st.delayed += 1;
        if (trace_ != nullptr) {
          trace::Event ev;
          ev.kind = trace::EventKind::kDeliveryDelayed;
          ev.round = round_;
          ev.node = rec.from;
          ev.subject = v;
          ev.count = d;
          ev.value = land;
          trace_->on_event(ev);
        }
      }
    }
    auto t5 = Clock::now();

    st.records = static_cast<std::uint32_t>(cur_.records().size());
    st.deliveries = cur_.deliveries();
    st.honest_bits = ledger_->honest_bits_total() - honest_bits_before;
    st.adversary_bits = ledger_->adversary_bits_total() - adv_bits_before;
    st.erasures = static_cast<std::uint32_t>(erased_.size());
    st.corruptions = corrupt_count_ - corrupt_before;
    auto ns = [](Clock::time_point a, Clock::time_point b) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
              .count());
    };
    st.ns_honest = ns(t0, t1);
    st.ns_byzantine = ns(t1, t2);
    st.ns_adversary = ns(t2, t3);
    st.ns_accounting = ns(t3, t4);
    st.ns_delivery = ns(t4, t5);
    accumulate(summary_, st);
    round_stats_.push_back(st);
    {
      trace::Event ev;
      ev.kind = trace::EventKind::kRoundEnd;
      ev.round = st.round;
      ev.stats = st;
      trace::emit(trace_, ev);
    }

    std::swap(cur_, prev_);
    ++round_;
  }

  void run_rounds(std::uint64_t rounds) {
    for (std::uint64_t i = 0; i < rounds; ++i) step();
  }

 private:
  /// THE activation rule, shared by the honest and Byzantine loops: call
  /// v's actor unless its inbox is empty and its last reported wake round
  /// is still in the future; then cache its next wake round. Returns
  /// whether the actor ran.
  bool activate(NodeId v, const TrafficView<Msg>& rushed) {
    if (inboxes_[v].empty() && wake_[v] > round_) return false;
    Actor<Msg>& actor = *actors_[v];
    RoundApi<Msg> api(v, n_, &cur_);
    actor.on_round(round_, inbox_of(v), rushed, api);
    wake_[v] = actor.wake_round();
    return true;
  }

  std::span<const Delivery<Msg>> inbox_of(NodeId v) const {
    return std::span<const Delivery<Msg>>(inboxes_[v].data(),
                                          inboxes_[v].size());
  }

  void deliver_to(NodeId v, const typename TrafficLog<Msg>::Record& rec) {
    auto& ib = inboxes_[v];
    if (ib.empty()) touched_inboxes_.push_back(v);
    ib.push_back(Delivery<Msg>{rec.from, &rec.msg});
  }

  bool erased_covers(std::size_t d) const {
    return std::binary_search(erased_.begin(), erased_.end(), d);
  }

  /// Recompute the honest/corrupt iteration orders (ascending node id,
  /// matching the original skip-loop order). Runs only when the corruption
  /// set changed, not every round.
  void rebuild_roster() {
    honest_ids_.clear();
    corrupt_ids_.clear();
    for (NodeId v = 0; v < n_; ++v) {
      (corrupt_[v] ? corrupt_ids_ : honest_ids_).push_back(v);
    }
    roster_dirty_ = false;
  }

  void corrupt(NodeId node) override { do_corrupt(node); }

  void erase(std::size_t delivery_index) override {
    AMBB_CHECK(delivery_index < cur_.deliveries());
    const auto& rec = cur_.records()[cur_.record_of(delivery_index)];
    AMBB_CHECK_MSG(corrupt_[rec.from],
                   "after-the-fact removal requires a corrupt sender");
    erased_.push_back(delivery_index);
    trace::Event ev;
    ev.kind = trace::EventKind::kAdversaryAction;
    ev.round = round_;
    ev.node = rec.from;
    ev.count = delivery_index;
    ev.detail = "erase";
    trace::emit(trace_, ev);
  }

  void delay(std::size_t delivery_index, std::uint32_t extra_rounds) override {
    AMBB_CHECK_MSG(!net_.lockstep(),
                   "timing faults need a bounded or async delay policy");
    AMBB_CHECK(delivery_index < cur_.deliveries());
    if (extra_rounds == 0) return;
    delayed_.emplace_back(delivery_index, extra_rounds);
    if (trace_ != nullptr) {
      const auto& rec = cur_.records()[cur_.record_of(delivery_index)];
      trace::Event ev;
      ev.kind = trace::EventKind::kAdversaryAction;
      ev.round = round_;
      ev.node = rec.from;
      ev.count = delivery_index;
      ev.detail = "delay";
      trace_->on_event(ev);
    }
  }

  void do_corrupt(NodeId node) {
    AMBB_CHECK(node < n_);
    if (corrupt_[node]) return;
    AMBB_CHECK_MSG(corrupt_count_ < f_, "corruption budget f exhausted");
    corrupt_[node] = 1;
    ++corrupt_count_;
    roster_dirty_ = true;
    AMBB_CHECK(adversary_ != nullptr);
    actors_[node] = adversary_->actor_for(node);
    wake_[node] = 0;
    trace::Event ev;
    ev.kind = trace::EventKind::kAdversaryAction;
    ev.round = round_;
    ev.node = node;
    ev.detail = "corrupt";
    trace::emit(trace_, ev);
  }

  std::uint32_t n_;
  std::uint32_t f_;
  CostLedger* ledger_;
  Policy policy_;
  Adversary<Msg>* adversary_ = nullptr;
  Round round_ = 0;
  std::vector<std::uint8_t> corrupt_;
  std::uint32_t corrupt_count_ = 0;
  std::vector<NodeId> honest_ids_;   ///< cached actor iteration order
  std::vector<NodeId> corrupt_ids_;  ///< (rebuilt when corruptions change)
  bool roster_dirty_ = true;
  std::vector<std::unique_ptr<Actor<Msg>>> actors_;
  /// Per node: the wake round its actor reported after its last call (0
  /// after install = run next round). See activate().
  std::vector<Round> wake_;
  /// Inbox buffers draw from a shared arena rewound each round (entries
  /// point into prev_'s records). Declared before inboxes_ so the vectors
  /// die before their backing storage.
  std::unique_ptr<Arena> inbox_arena_;
  std::vector<ArenaVector<Delivery<Msg>>> inboxes_;
  std::vector<NodeId> touched_inboxes_;  ///< pushed-to since their reset
  TrafficLog<Msg> cur_;   ///< records emitted this round
  TrafficLog<Msg> prev_;  ///< last round's records, referenced by inboxes
  /// Delivery indices erased this round (sorted + deduped after step 3).
  std::vector<std::size_t> erased_;
  /// Adversary delay() requests of this round: (delivery index, extra
  /// rounds). Sorted in the delivery phase; duplicates sum.
  std::vector<std::pair<std::size_t, std::uint32_t>> delayed_;
  /// One payload copy per deferred delivery, bucketed by the round whose
  /// inboxes it lands in. A bucket lives in the map until its due round's
  /// delivery phase, then moves to pending_ready_ for one round (the
  /// inboxes reference it — same lifetime rule as prev_). Empty forever
  /// under lockstep.
  struct PendingMsg {
    NodeId from;
    NodeId to;
    Msg msg;
  };
  std::map<Round, std::vector<PendingMsg>> pending_;
  std::vector<PendingMsg> pending_ready_;
  NetPolicy net_;
  bool configured_ = false;
  std::vector<RoundStats> round_stats_;
  RoundStatsSummary summary_;
  trace::TraceSink* trace_ = nullptr;
};

}  // namespace ambb
