// Blockchain-style replicated ledger on top of multi-shot BB.
//
// Synchronous multi-shot BB directly yields Byzantine atomic broadcast
// (Section 2): slot k's decision is block k. This example exercises the
// SEQUENTIALITY property (Definition 2): each block's content is derived
// from the previously COMMITTED block — a causal chain that batching-based
// extension protocols cannot provide. At the end, every honest replica's
// ledger hash must be identical, with rotating senders and a mixed
// Byzantine adversary present.
#include <cstdio>
#include <string>

#include "bb/linear_bb.hpp"
#include "common/byte_buf.hpp"
#include "crypto/sha256.hpp"
#include "runner/result.hpp"
#include "runner/table.hpp"

int main() {
  using namespace ambb;

  const std::uint32_t n = 16, f = 6;
  const Slot blocks = 24;

  RunConfig cfg;
  cfg.n = n;
  cfg.f = f;
  cfg.slots = blocks;
  cfg.seed = 777;
  cfg.adversary = "mixed";

  // Causal block production: block k commits H(k, parent) where parent is
  // the value committed at slot k-1 by the slot-k sender (it has committed
  // slot k-1 before slot k starts — that is sequentiality). Slot 1 builds
  // on a genesis constant.
  cfg.input_with_log = [&cfg](Slot k, const CommitLog& log) -> Value {
    Value parent = 0x6e65736953;  // genesis
    if (k > 1) {
      const NodeId sender = (k - 1) % cfg.n;  // round-robin, same as driver
      if (log.has(sender, k - 1)) parent = log.get(sender, k - 1).value;
    }
    Encoder e;
    e.put_tag("block");
    e.put_u32(k);
    e.put_u64(parent);
    const Digest d = Sha256::hash(
        std::span<const std::uint8_t>(e.bytes().data(), e.bytes().size()));
    Value v = 0;
    for (int i = 0; i < 8; ++i) v = v << 8 | d[i];
    return v;
  };

  std::printf("replicated ledger over Algorithm 4: %u replicas, %u "
              "Byzantine, %u blocks, mixed adversary\n\n",
              n, f, blocks);
  RunResult r = linear::run_linear(cfg);

  auto errs = check_all(r);
  for (const auto& e : errs) std::printf("PROPERTY VIOLATION: %s\n", e.c_str());
  if (!errs.empty()) return 1;

  // Fold each honest replica's committed chain into a ledger digest.
  TextTable t({"replica", "ledger digest (first 16 hex)"});
  std::string first;
  bool all_equal = true;
  for (NodeId u = 0; u < n; ++u) {
    if (r.corrupt[u]) continue;
    Encoder e;
    for (Slot k = 1; k <= blocks; ++k) {
      e.put_u64(r.commits.get(u, k).value);
    }
    const Digest d = Sha256::hash(
        std::span<const std::uint8_t>(e.bytes().data(), e.bytes().size()));
    const std::string hex = digest_hex(d).substr(0, 16);
    if (first.empty()) first = hex;
    all_equal &= hex == first;
    t.add_row({std::to_string(u), hex});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("all honest ledgers identical: %s\n",
              all_equal ? "yes" : "NO (bug!)");
  std::printf("amortized cost: %s/block over %u blocks\n",
              TextTable::bits_human(r.amortized()).c_str(), blocks);
  return all_equal ? 0 : 1;
}
