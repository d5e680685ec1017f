#include "ext/extension.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

#include "adversary/scheduled.hpp"
#include "adversary/spec.hpp"
#include "bb/dolev_strong.hpp"
#include "bb/linear_bb.hpp"
#include "bb/quadratic_bb.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "crypto/intern.hpp"
#include "crypto/rs_code.hpp"
#include "runner/drive.hpp"
#include "sim/cost.hpp"

namespace ambb::ext {

std::vector<std::string> kind_names() { return {"disperse", "echo"}; }

Value digest_fp64(const Digest& d) {
  Value v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
}

namespace {

Value payload_fp64(const std::vector<std::uint8_t>& payload) {
  // Interned: the sender and every recipient fingerprint the same payload.
  return digest_fp64(DigestCache::local().hash("ext-payload", payload));
}

/// True if `m` is well-formed for this run and its path verifies against
/// its claimed root.
bool chunk_valid(const Msg& m, const Context& ctx) {
  if (m.col >= ctx.n || m.slot < 1 || m.slot > ctx.slots) return false;
  if (m.chunk.size() != ctx.chunk_len) return false;
  return merkle::verify(m.root, ctx.n, m.col,
                        merkle::leaf_hash(m.col, m.chunk), m.path);
}

void store_chunk(std::vector<StoredChunk>& store, const Msg& m) {
  for (const StoredChunk& s : store) {
    if (s.col == m.col && s.root == m.root) return;
  }
  store.push_back(StoredChunk{m.col, m.root, m.chunk, m.path});
}

}  // namespace

void ExtNode::absorb(std::span<const Delivery<Msg>> inbox) {
  NodeState& st = (*ctx_->states)[id_];
  for (const Delivery<Msg>& d : inbox) {
    const Msg& m = d.msg();
    if (!chunk_valid(m, *ctx_)) continue;
    // Identity-bound acceptance: a dispersed chunk must be MY column; an
    // echoed chunk must come from the node owning that column. Anything
    // else (a shuffle fault misrouting a unicast, a relayed copy) is
    // dropped, which caps the non-uniform columns an adversary can plant
    // at one per corrupt node — the -f slack in the decision rule.
    const bool own_disperse =
        m.kind == Kind::kDisperse && m.col == static_cast<std::uint32_t>(id_);
    const bool owner_echo =
        m.kind == Kind::kEcho && m.col == static_cast<std::uint32_t>(d.from);
    if (!own_disperse && !owner_echo) continue;
    store_chunk(st.store[m.slot], m);
  }
}

void ExtNode::on_round(Round r, std::span<const Delivery<Msg>> inbox,
                       const TrafficView<Msg>&, RoundApi<Msg>& api) {
  const Slot k = ctx_->sched.slot_of(r);
  const std::uint32_t offset = ctx_->sched.offset_of(r);
  absorb(inbox);
  // The drain round after the last slot (echoes sent in the final echo
  // round are delivered at the START of the next round) only absorbs.
  if (k > ctx_->slots) return;
  NodeState& st = (*ctx_->states)[id_];

  if (offset == 0) {
    if (ctx_->sender_of(k) != id_) return;
    const SlotEncoding& enc = (*ctx_->enc)[k];
    for (NodeId j = 0; j < ctx_->n; ++j) {
      Msg m;
      m.kind = Kind::kDisperse;
      m.slot = k;
      m.col = j;
      m.root = enc.root;
      m.chunk = enc.chunks[j];
      m.path = enc.paths[j];
      api.send(j, std::move(m));
    }
    trace::Event ev;
    ev.kind = trace::EventKind::kChunkDisperse;
    ev.round = r;
    ev.slot = k;
    ev.node = id_;
    ev.value = digest_fp64(enc.root);
    ev.count = ctx_->chunk_len;
    trace::emit(ctx_->trace, ev);
    return;
  }

  // Echo round: forward my own column if the disperse round delivered a
  // valid one for THIS slot. A stagger-delayed disperse lands after this
  // round, is stored for reconstruction, but is never echoed and never
  // enters the receipt vote — the vote must certify an echo that the
  // whole network received.
  if (st.echoed_fp[k] != kBotValue) return;
  for (const StoredChunk& s : st.store[k]) {
    if (s.col != static_cast<std::uint32_t>(id_)) continue;
    Msg m;
    m.kind = Kind::kEcho;
    m.slot = k;
    m.col = s.col;
    m.root = s.root;
    m.chunk = s.chunk;
    m.path = s.path;
    api.multicast(m);
    st.echoed_fp[k] = digest_fp64(s.root);
    trace::Event ev;
    ev.kind = trace::EventKind::kChunkEcho;
    ev.round = r;
    ev.slot = k;
    ev.node = id_;
    ev.value = st.echoed_fp[k];
    trace::emit(ctx_->trace, ev);
    break;
  }
}

namespace {

/// The Merkle tree committing to a slot's columns: leaf j binds column j
/// to its index.
merkle::Tree column_tree(const std::vector<std::vector<std::uint8_t>>& cols) {
  std::vector<Digest> leaves(cols.size());
  for (std::uint32_t j = 0; j < cols.size(); ++j) {
    leaves[j] = merkle::leaf_hash(j, cols[j]);
  }
  return merkle::Tree::build(leaves);
}

/// The dispersal phase as a drive() family (runner/drive.hpp): 2 rounds
/// per slot plus one drain round, its own adversary salt, and no named
/// adversaries. The constructor encodes every slot's payload_len-byte
/// payload with threshold k into the caller's `enc` and sizes the
/// caller's `states`: both outlive the phase.
struct ExtFamily : FamilyDefaults {
  using Msg = ext::Msg;
  using Sim = ext::Sim;
  static constexpr std::uint64_t kAdversarySalt = 0xE87E9510ULL;
  /// The last slot's echoes are sent in round 2*slots - 1 and delivered
  /// at the start of round 2*slots.
  static constexpr Round kDrainRounds = 1;

  static std::vector<std::string> kind_names() { return ext::kind_names(); }

  static void check(const RunConfig& cfg) {
    AMBB_CHECK_MSG(cfg.n >= 2 && 2 * cfg.f < cfg.n,
                   "extension protocol needs f <= (n-1)/2, got n="
                       << cfg.n << " f=" << cfg.f);
    AMBB_CHECK_MSG(cfg.n <= 256, "RS code caps n at 256");
    AMBB_CHECK_MSG(
        cfg.adversary == "none" || adversary::is_schedule_spec(cfg.adversary),
        "extension rows accept only 'none' or schedule specs, got '"
            << cfg.adversary << "'");
  }

  ExtFamily(const RunConfig& cfg, std::uint32_t k, std::size_t payload_len,
            std::vector<SlotEncoding>* enc, std::vector<NodeState>* states) {
    ctx.sched = Schedule{2};
    ctx.k = k;
    ctx.slots = cfg.slots;
    ctx.payload_len = payload_len;
    ctx.chunk_len = rs::chunk_bytes(ctx.payload_len, ctx.k);
    // Deterministic pseudo-random payloads; the committed Value is the
    // payload's 64-bit fingerprint (the in-memory carrier convention).
    enc->assign(cfg.slots + 1, SlotEncoding{});
    std::uint64_t pay_seed = cfg.seed ^ 0x10adBEEFULL;
    for (Slot s = 1; s <= cfg.slots; ++s) {
      SlotEncoding& e = (*enc)[s];
      e.payload.resize(ctx.payload_len);
      for (std::size_t i = 0; i < e.payload.size(); i += 8) {
        const std::uint64_t w = splitmix64(pay_seed);
        for (std::size_t b = 0; b < 8 && i + b < e.payload.size(); ++b) {
          e.payload[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
        }
      }
      e.chunks = rs::encode(e.payload, cfg.n, ctx.k);
      const merkle::Tree tree = column_tree(e.chunks);
      e.root = tree.root();
      e.paths.resize(cfg.n);
      for (std::uint32_t j = 0; j < cfg.n; ++j) e.paths[j] = tree.prove(j);
    }
    ctx.enc = enc;
    states->assign(cfg.n, NodeState{});
    for (NodeState& st : *states) {
      st.echoed_fp.assign(cfg.slots + 1, kBotValue);
      st.store.resize(cfg.slots + 1);
    }
    ctx.states = states;
  }

  CostPolicy cost() const { return CostPolicy{ctx.wire}; }

  std::unique_ptr<Actor<Msg>> node(NodeId v) const {
    return std::make_unique<ExtNode>(v, &ctx);
  }
  std::unique_ptr<Actor<Msg>> seat(NodeId v) const { return node(v); }

  /// Unreachable: check() admits only "none" and schedule specs.
  std::unique_ptr<Adversary<Msg>> named_adversary(const std::string&,
                                                  std::uint64_t) const {
    return nullptr;
  }

  Context ctx;
};

/// The base phase, run over any of the four supported families.
RunResult run_base(const RunConfig& cfg, const std::string& base,
                   Slot base_slots,
                   const std::function<Value(Slot)>& input_for_slot,
                   const std::function<NodeId(Slot)>& sender_of) {
  RunConfig b = cfg;
  b.slots = base_slots;
  b.seed = cfg.seed ^ 0xBA5EBB01ULL;
  b.value_bits = cfg.kappa_bits;  // digests and digest-fp votes
  b.adversary = "none";
  b.input_for_slot = input_for_slot;
  b.input_with_log = nullptr;
  b.sender_of = sender_of;
  b.opts = linear::Options::paper();
  b.use_multisig = base == "dolev-strong-msig";
  if (base == "linear") return linear::run_linear(b);
  if (base == "quadratic") return quad::run_quadratic(b);
  if (base == "dolev-strong" || base == "dolev-strong-msig") {
    return ds::run_dolev_strong(b);
  }
  AMBB_CHECK_MSG(false, "unknown extension base '" << base << "'");
  std::abort();  // AMBB_CHECK_MSG throws; see registry.cpp note
}

}  // namespace

RunResult run_extension(const RunConfig& cfg, const std::string& family) {
  // ---- Phase 1: chunk dispersal (2 lock-step rounds per slot). ----
  std::vector<SlotEncoding> enc;
  std::vector<NodeState> states;
  RunConfig disp = cfg;
  disp.value_bits = cfg.kappa_bits;
  disp.input_for_slot = [&enc](Slot s) { return payload_fp64(enc[s].payload); };
  disp.input_with_log = nullptr;
  // Any k of the n columns rebuild a payload (ExtFamily::check, inside
  // drive(), rejects 2f >= n before k is used).
  const std::uint32_t k = cfg.n - 2 * cfg.f;
  const std::size_t payload_len =
      cfg.payload_bytes != 0 ? cfg.payload_bytes
                             : static_cast<std::size_t>(cfg.kappa_bits / 8);
  RunResult res = drive<ExtFamily>(disp, {}, k, payload_len, &enc, &states);

  // ---- Phase 2: digest + receipt votes over the base BB family. ----
  // Base slot b of ext slot s: sub = (b-1) % (n+1); sub 0 carries
  // fp(root_s) from the slot sender, sub j >= 1 carries node (j-1)'s
  // receipt vote read off its dispersal-phase state.
  const std::uint32_t per_slot = cfg.n + 1;
  const Slot base_slots = cfg.slots * per_slot;
  auto base_input = [&enc, &states, per_slot](Slot b) {
    const Slot s = (b - 1) / per_slot + 1;
    const std::uint32_t sub = (b - 1) % per_slot;
    if (sub == 0) return digest_fp64(enc[s].root);
    return states[sub - 1].echoed_fp[s];
  };
  auto base_sender = [&res, per_slot](Slot b) {
    const Slot s = (b - 1) / per_slot + 1;
    const std::uint32_t sub = (b - 1) % per_slot;
    return sub == 0 ? res.senders[s] : static_cast<NodeId>(sub - 1);
  };
  RunResult base = run_base(cfg, family, base_slots, base_input, base_sender);

  // ---- Phase 3: local decisions. ----
  const Round total_rounds = res.rounds + base.rounds;
  CommitLog commits(cfg.n);
  for (NodeId v = 0; v < cfg.n; ++v) {
    for (Slot s = 1; s <= cfg.slots; ++s) {
      const Slot b0 = static_cast<Slot>((s - 1) * per_slot + 1);
      Value decided = kBotValue;
      std::uint64_t held = 0;
      const char* outcome = "bot";
      if (base.commits.has(v, b0)) {
        const Value d_fp = base.commits.get(v, b0).value;
        std::uint32_t votes = 0;
        for (std::uint32_t j = 0; j < cfg.n; ++j) {
          const Slot bj = static_cast<Slot>(b0 + 1 + j);
          if (d_fp != kBotValue && base.commits.has(v, bj) &&
              base.commits.get(v, bj).value == d_fp) {
            ++votes;
          }
        }
        if (votes >= cfg.n - cfg.f) {
          // Columns bound to the agreed digest. Ties on the 64-bit
          // fingerprint across distinct full roots are a SHA-256
          // truncation collision — out of model; pick the smallest root
          // deterministically if it ever happened.
          const Digest* root = nullptr;
          for (const StoredChunk& c : states[v].store[s]) {
            if (digest_fp64(c.root) != d_fp) continue;
            if (root == nullptr || c.root < *root) root = &c.root;
          }
          std::vector<rs::Chunk> cols;
          if (root != nullptr) {
            for (const StoredChunk& c : states[v].store[s]) {
              if (c.root == *root) cols.emplace_back(c.col, c.chunk);
            }
          }
          if (cols.size() >= k) {
            const std::vector<std::uint8_t> payload =
                rs::reconstruct(cols, cfg.n, k, payload_len);
            if (column_tree(rs::encode(payload, cfg.n, k)).root() == *root) {
              decided = payload_fp64(payload);
              outcome = "commit";
            }
          }
          held = cols.size();
        }
      }
      commits.record(v, s, decided, total_rounds);
      trace::Event ev;
      ev.kind = trace::EventKind::kReconstruct;
      ev.round = total_rounds;
      ev.slot = s;
      ev.node = v;
      ev.value = decided;
      ev.count = held;
      ev.detail = outcome;
      trace::emit(cfg.trace, ev);
    }
  }

  // ---- Merge the base phase into the dispersal phase's RunResult. ----
  res.rounds = total_rounds;
  res.honest_bits += base.honest_bits;
  res.adversary_bits += base.adversary_bits;
  res.honest_msgs += base.honest_msgs;
  std::vector<std::uint64_t> slot_bits(cfg.slots + 1, 0);
  for (Slot s = 1; s <= cfg.slots; ++s) {
    if (s < res.per_slot_bits.size()) slot_bits[s] = res.per_slot_bits[s];
    for (std::uint32_t sub = 0; sub < per_slot; ++sub) {
      const Slot b = static_cast<Slot>((s - 1) * per_slot + 1 + sub);
      if (b < base.per_slot_bits.size()) {
        slot_bits[s] += base.per_slot_bits[b];
      }
    }
  }
  res.per_slot_bits = std::move(slot_bits);
  for (std::size_t i = 0; i < base.kind_names.size(); ++i) {
    res.kind_names.push_back("base:" + base.kind_names[i]);
    res.per_kind_bits.push_back(i < base.per_kind_bits.size()
                                    ? base.per_kind_bits[i]
                                    : 0);
  }
  res.commits = std::move(commits);
  res.round_stats.insert(res.round_stats.end(), base.round_stats.begin(),
                         base.round_stats.end());
  return res;
}

}  // namespace ambb::ext
