// Long-message extension protocol (DESIGN.md §13): erasure-coded chunk
// dispersal wrapped around any registered base BB family, after
// Nayak-Ren-Shi-Vaidya-Xiang (arXiv 2002.11321).
//
// An L-byte payload is RS-coded (src/crypto/rs_code.*) into n chunks,
// any k = n-2f of which reconstruct, and committed by a Merkle root
// (src/crypto/merkle.*). The run has two lock-step phases:
//
//   dispersal phase (2 rounds per slot, this file's Simulation):
//     round 0  the slot sender unicasts <chunk_j, path_j, root> to each j
//     round 1  each node that verified its OWN column echoes it to all
//
//   base-BB phase (any registry family, adversary-free, kappa-bit values):
//     per ext slot, 1+n base slots: the digest slot broadcasts fp(root)
//     from the slot sender, then one receipt slot per node j broadcasts
//     j's vote — fp(root) if j echoed its column under that root in the
//     dispersal phase, bot otherwise.
//
// Decision (local, no further communication): with d = own digest-slot
// commit and V = {j : own receipt-slot-j commit == d != bot}, commit the
// reconstruction of the stored columns bound to d iff |V| >= n-f and the
// re-encoded Merkle root matches; else commit bot.
//
// Consistency holds for any f <= (n-1)/2 under the strongly adaptive
// fault schedules of src/adversary/: base-BB consistency makes V common
// to all honest nodes, every final-honest member of V echoed its column
// as an un-erasable multicast (erasing it requires corrupting the
// echoer, removing it from the consistency quantifier), so every honest
// node holds >= |V|-f >= n-2f = k columns bound to d, and Merkle binding
// plus the re-encode check make the reconstructed value unique given d.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/wire.hpp"
#include "crypto/merkle.hpp"
#include "runner/result.hpp"
#include "runner/run_config.hpp"
#include "sim/net.hpp"

namespace ambb::ext {

enum class Kind : MsgKind { kDisperse = 0, kEcho, kKindCount };

std::vector<std::string> kind_names();

/// First 8 bytes of a digest as a Value: the uint64 in-memory carrier for
/// a kappa-bit quantity (see common/types.hpp on wire vs carrier width).
Value digest_fp64(const Digest& d);

/// One dispersal-phase message: a column with its authentication path.
struct Msg {
  Kind kind = Kind::kDisperse;
  Slot slot = 0;
  std::uint32_t col = 0;  ///< column index, equals the owning node's id
  Digest root{};          ///< claimed Merkle root
  std::vector<std::uint8_t> chunk;
  merkle::Path path;
};

/// 2 rounds per slot (disperse, echo).
using Schedule = SlotSchedule;

/// Exact wire size of a dispersal message: header, column id, the chunk
/// bytes, one kappa-bit digest per path level, and the kappa-bit root.
struct CostPolicy {
  WireModel wire;

  std::uint64_t size_bits(const Msg& m) const {
    return wire.header_bits() + wire.id_bits() +
           8ull * static_cast<std::uint64_t>(m.chunk.size()) +
           static_cast<std::uint64_t>(m.path.size()) * wire.kappa_bits +
           wire.kappa_bits;
  }
  MsgKind kind(const Msg& m) const { return static_cast<MsgKind>(m.kind); }
  Slot slot(const Msg& m, Round) const { return m.slot; }
};

using Sim = Simulation<Msg, CostPolicy>;

/// Precomputed coding of one slot's payload (driver-owned, read-only).
struct SlotEncoding {
  std::vector<std::uint8_t> payload;
  std::vector<std::vector<std::uint8_t>> chunks;  ///< n columns
  Digest root{};
  std::vector<merkle::Path> paths;  ///< [col]
};

/// One verified column in a node's store.
struct StoredChunk {
  std::uint32_t col = 0;
  Digest root{};
  std::vector<std::uint8_t> chunk;
  merkle::Path path;
};

/// Per-node dispersal outcome. Lives in the driver, not the actor, so it
/// survives the adversary swapping a corrupted node's actor instance.
struct NodeState {
  /// [slot]: fp64 of the root this node echoed its own column under in
  /// that slot's echo round; kBotValue if it never echoed. This is the
  /// node's receipt-vote input to the base phase.
  std::vector<Value> echoed_fp;
  /// [slot]: accepted columns (identity-bound: own column via disperse,
  /// column j only from node j's echo), deduped by (col, root).
  std::vector<std::vector<StoredChunk>> store;
};

struct Context : RunContext {
  std::uint32_t k = 0;  ///< reconstruction threshold n - 2f
  Slot slots = 0;
  std::size_t payload_len = 0;
  std::size_t chunk_len = 0;
  Schedule sched;
  const std::vector<SlotEncoding>* enc = nullptr;  ///< [slot], [0] unused
  std::vector<NodeState>* states = nullptr;        ///< [node]
};

class ExtNode final : public Actor<Msg> {
 public:
  ExtNode(NodeId id, const Context* ctx) : id_(id), ctx_(ctx) {}

  void on_round(Round r, std::span<const Delivery<Msg>> inbox,
                const TrafficView<Msg>& rushed,
                RoundApi<Msg>& api) override;

 private:
  void absorb(std::span<const Delivery<Msg>> inbox);

  NodeId id_;
  const Context* ctx_;
};

/// One ext:<family> run. `family` names the registry family running the
/// digest+receipt phase: linear | quadratic | dolev-strong |
/// dolev-strong-msig. cfg.payload_bytes is the payload per slot (the
/// paper's l; 0 = one kappa-bit value); cfg.eps is forwarded to a linear
/// base. cfg.adversary is "none" or any schedule spec ("sched:..." /
/// "fuzz[:k]") and applies to the dispersal phase only: the base phase
/// always runs adversary-free, and the final corrupt set is the
/// dispersal phase's. cfg.net applies to the dispersal sim AND is
/// forwarded to the nested base-family run.
RunResult run_extension(const RunConfig& cfg, const std::string& family);

}  // namespace ambb::ext
