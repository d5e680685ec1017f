#include "kernels.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/merkle.hpp"
#include "crypto/rs_code.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "crypto/threshold.hpp"
#include "graph/expander.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ambb::Digest;

// Timed results are folded in here so the optimiser cannot drop the calls.
volatile std::uint8_t g_sink = 0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Median ns per call of op(i), over `samples` batches of `batch` calls.
/// The call index i runs 0, 1, 2, ... across all batches.
double ns_per_call(std::size_t samples, std::size_t batch,
                   const std::function<void(std::size_t)>& op) {
  std::vector<double> per_call;
  std::size_t i = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < batch; ++b) op(i++);
    const auto t1 = Clock::now();
    per_call.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(batch));
  }
  return median(per_call);
}

/// How many batches fit in the budget, given one untimed probe batch.
std::size_t samples_for(double budget_ms, std::size_t batch,
                        const std::function<void(std::size_t)>& op,
                        std::size_t lo = 5, std::size_t hi = 64) {
  const auto t0 = Clock::now();
  for (std::size_t b = 0; b < batch; ++b) op(b);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  const double fit = ms > 0 ? budget_ms / ms : static_cast<double>(hi);
  return std::clamp(static_cast<std::size_t>(fit), lo, hi);
}

std::vector<std::uint8_t> random_bytes(ambb::Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

std::vector<Digest> random_digests(ambb::Rng& rng, std::size_t count) {
  std::vector<Digest> out(count);
  for (Digest& d : out) {
    for (auto& b : d) b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return out;
}

/// Accumulates the results of one layer's timers, failing every one of
/// them if a check throws or returns false.
class Timers {
 public:
  explicit Timers(std::vector<KernelResult>& out) : out_(out) {}

  void add(const std::string& name, double value, const std::string& unit) {
    out_.push_back(KernelResult{name, value, unit, true, ""});
  }

  /// Run `body`, which calls add(); if it throws, or `check` fails
  /// afterwards, every result it added is marked failed.
  void group(const std::function<void()>& body,
             const std::function<bool()>& check, const char* what) {
    const std::size_t first = out_.size();
    std::string error;
    try {
      body();
      if (!check()) error = std::string("check failed: ") + what;
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (error.empty()) return;
    for (std::size_t i = first; i < out_.size(); ++i) {
      out_[i].ok = false;
      out_[i].error = error;
    }
  }

 private:
  std::vector<KernelResult>& out_;
};

}  // namespace

std::vector<KernelResult> run_kernels(std::uint64_t seed, double budget_ms) {
  std::vector<KernelResult> out;
  Timers timers(out);
  ambb::Rng rng(seed);

  // ---- crypto: SHA-256 on a 32 KiB chunk (the ext chunk size) and on a
  // 64-byte message (the size of a vote encoding). ----
  {
    const auto block = random_bytes(rng, 32 * 1024);
    const auto shorts = random_bytes(rng, 64 * 1024);
    timers.group(
        [&] {
          auto long_op = [&](std::size_t) {
            g_sink = g_sink ^ ambb::Sha256::hash(block)[0];
          };
          timers.add("crypto.sha256_block_ns",
                     ns_per_call(samples_for(budget_ms, 8, long_op), 8,
                                 long_op),
                     "ns");
          auto short_op = [&](std::size_t i) {
            const std::size_t off = (i % 1024) * 64;
            g_sink = g_sink ^
                     ambb::Sha256::hash(std::span<const std::uint8_t>(
                         shorts.data() + off, 64))[0];
          };
          timers.add("crypto.sha256_short_ns",
                     ns_per_call(samples_for(budget_ms, 1024, short_op), 1024,
                                 short_op),
                     "ns");
        },
        [&] {
          // FIPS 180-4 known answer, plus one-shot == streamed on the
          // timed 32 KiB input.
          const Digest abc = ambb::Sha256::hash(std::string_view("abc"));
          if (ambb::digest_hex(abc) !=
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad")
            return false;
          ambb::Sha256 h;
          h.update(std::span<const std::uint8_t>(block.data(), 1000));
          h.update(std::span<const std::uint8_t>(block.data() + 1000,
                                                 block.size() - 1000));
          return h.finalize() == ambb::Sha256::hash(block);
        },
        "sha256 known answer / streaming");
  }

  // ---- crypto: MAC, sign, verify (cache miss and hit). Two registries
  // with one master seed hold the same keys but distinct uids, so
  // verifying A's signatures through B starts from an empty MAC memo. ----
  {
    constexpr std::uint32_t kN = 128;
    constexpr std::size_t kBatch = 512;
    constexpr std::size_t kHitSet = 1024;
    const std::uint64_t master = rng.next_u64();
    const ambb::KeyRegistry a(kN, master);
    const ambb::KeyRegistry b(kN, master);
    const auto digests = random_digests(rng, 64 * kBatch);
    std::vector<ambb::Signature> sigs(digests.size());
    bool ok = true;
    timers.group(
        [&] {
          const ambb::PrfKey key(digests[0]);
          auto mac_op = [&](std::size_t i) {
            g_sink = g_sink ^ key.mac(i, digests[i % digests.size()])[0];
          };
          timers.add("crypto.mac_ns",
                     ns_per_call(samples_for(budget_ms, kBatch, mac_op),
                                 kBatch, mac_op),
                     "ns");
          // Every digest is signed and verified once on the miss path, so
          // these two use all 64 batches regardless of the budget.
          const std::size_t batches = digests.size() / kBatch;
          timers.add("crypto.sign_ns",
                     ns_per_call(batches, kBatch,
                                 [&](std::size_t i) {
                                   sigs[i] = a.sign(
                                       static_cast<ambb::NodeId>(i % kN),
                                       digests[i]);
                                 }),
                     "ns");
          timers.add("crypto.verify_miss_ns",
                     ns_per_call(batches, kBatch,
                                 [&](std::size_t i) {
                                   ok = b.verify(sigs[i], digests[i]) && ok;
                                 }),
                     "ns");
          auto hit_op = [&](std::size_t i) {
            const std::size_t j = i % kHitSet;
            ok = b.verify(sigs[j], digests[j]) && ok;
          };
          for (std::size_t j = 0; j < kHitSet; ++j) hit_op(j);  // warm
          timers.add("crypto.verify_hit_ns",
                     ns_per_call(samples_for(budget_ms, kHitSet, hit_op),
                                 kHitSet, hit_op),
                     "ns");
        },
        [&] {
          // Accepts a valid signature, rejects a tampered one and a
          // signature claimed for another digest.
          ambb::Signature bad = sigs[7];
          bad.mac[3] ^= 0x40;
          return ok && b.verify(sigs[7], digests[7]) &&
                 !b.verify(bad, digests[7]) && !b.verify(sigs[7], digests[8]);
        },
        "sign/verify accept-valid reject-tampered");
  }

  // ---- crypto: threshold shares and combined-signature verification at
  // n = 128, t = n - f with f = 38 (the alg4_n128 fault load). ----
  {
    constexpr std::uint32_t kN = 128;
    constexpr std::uint32_t kT = kN - 38;
    constexpr std::size_t kSigs = 256;
    const std::uint64_t master = rng.next_u64();
    const ambb::KeyRegistry a(kN, master);
    const ambb::KeyRegistry b(kN, master);
    const ambb::ThresholdScheme tha(a, kT);
    const ambb::ThresholdScheme thb(b, kT);
    const auto digests = random_digests(rng, kSigs);
    std::vector<ambb::ThresholdSig> combined(kSigs);
    bool ok = true;
    timers.group(
        [&] {
          std::vector<ambb::SigShare> shares(kSigs * kT);
          // t shares per digest; combining them (outside the timer) gives
          // the signatures the verify timer checks once each through B.
          timers.add("crypto.threshold_share_ns",
                     ns_per_call(kSigs, kT,
                                 [&](std::size_t i) {
                                   shares[i] = tha.share(
                                       static_cast<ambb::NodeId>(i % kT),
                                       digests[i / kT]);
                                 }),
                     "ns");
          for (std::size_t d = 0; d < kSigs; ++d) {
            combined[d] = tha.combine(
                std::span<const ambb::SigShare>(shares.data() + d * kT, kT),
                digests[d]);
          }
          timers.add("crypto.threshold_verify_ns",
                     ns_per_call(kSigs / 32, 32,
                                 [&](std::size_t i) {
                                   ok = thb.verify(combined[i], digests[i]) &&
                                        ok;
                                 }),
                     "ns");
        },
        [&] {
          ambb::ThresholdSig bad = combined[5];
          bad.mac[0] ^= 1;
          const ambb::SigShare s = thb.share(3, digests[5]);
          return ok && thb.verify(combined[5], digests[5]) &&
                 !thb.verify(bad, digests[5]) &&
                 !thb.verify(combined[5], digests[6]) &&
                 thb.verify_share(s, digests[5]) &&
                 !thb.verify_share(s, digests[6]);
        },
        "threshold accept-valid reject-tampered");
  }

  // ---- ext: RS coding of a 256 KiB payload at n = 16, k = 8 (the
  // ext_p256k shape), and the Merkle commitment over its 16 chunks. ----
  {
    constexpr std::uint32_t kN = 16;
    constexpr std::uint32_t kK = 8;
    const auto payload = random_bytes(rng, 256 * 1024);
    const double mb = static_cast<double>(payload.size()) / 1e6;
    std::vector<std::vector<std::uint8_t>> chunks;
    std::vector<std::uint8_t> back;
    timers.group(
        [&] {
          auto enc_op = [&](std::size_t) {
            chunks = ambb::rs::encode(payload, kN, kK);
          };
          timers.add("ext.rs_encode_mbps",
                     mb / (ns_per_call(samples_for(budget_ms, 1, enc_op, 5, 32),
                                       1, enc_op) /
                           1e9),
                     "MB/s");
          // Parity-heavy: every parity column, no data column.
          std::vector<ambb::rs::Chunk> parity;
          for (std::uint32_t j = kK; j < kN; ++j) {
            parity.emplace_back(j, chunks[j]);
          }
          auto rec_op = [&](std::size_t) {
            back = ambb::rs::reconstruct(parity, kN, kK, payload.size());
          };
          timers.add("ext.rs_reconstruct_mbps",
                     mb / (ns_per_call(samples_for(budget_ms, 1, rec_op, 5, 32),
                                       1, rec_op) /
                           1e9),
                     "MB/s");
        },
        [&] { return back == payload; },
        "rs reconstruct round trip from parity columns");
  }
  {
    constexpr std::uint32_t kN = 16;
    auto chunks = ambb::rs::encode(random_bytes(rng, 256 * 1024), kN, 8);
    std::vector<Digest> leaves(kN);
    ambb::merkle::Tree tree;
    timers.group(
        [&] {
          // leaf_hash is interned, so each call stamps a fresh first byte
          // into every chunk: each timed commitment hashes new bytes, as
          // a sender committing a fresh payload does.
          auto commit_op = [&](std::size_t i) {
            AMBB_CHECK(i < 256);
            for (std::uint32_t j = 0; j < kN; ++j) {
              chunks[j][0] = static_cast<std::uint8_t>(i);
              leaves[j] = ambb::merkle::leaf_hash(j, chunks[j]);
            }
            tree = ambb::merkle::Tree::build(leaves);
          };
          const std::size_t samples =
              std::min<std::size_t>(samples_for(budget_ms, 1, commit_op, 5, 64),
                                    255);
          timers.add("ext.merkle_build_ms",
                     ns_per_call(samples, 1,
                                 [&](std::size_t i) { commit_op(i + 1); }) /
                         1e6,
                     "ms");
        },
        [&] {
          for (std::uint32_t j = 0; j < kN; ++j) {
            if (!ambb::merkle::verify(tree.root(), kN, j, leaves[j],
                                      tree.prove(j)))
              return false;
          }
          Digest bad = leaves[2];
          bad[0] ^= 1;
          return !ambb::merkle::verify(tree.root(), kN, 2, bad, tree.prove(2));
        },
        "merkle path proves against the root");
  }

  // ---- graph: the Algorithm 4 expander at n = 128, eps = 0.2. ----
  {
    const std::uint64_t gseed = rng.next_u64();
    std::vector<ambb::Graph> graphs;
    timers.group(
        [&] {
          auto build_op = [&](std::size_t) {
            graphs.push_back(ambb::build_expander(128, 0.2, gseed));
          };
          timers.add("graph.build_expander_ms",
                     ns_per_call(samples_for(budget_ms, 1, build_op, 3, 16), 1,
                                 build_op) /
                         1e6,
                     "ms");
        },
        [&] {
          for (const ambb::Graph& g : graphs) {
            for (std::uint32_t v = 0; v < g.n(); ++v) {
              if (g.neighbors(v) != graphs.front().neighbors(v)) return false;
            }
          }
          return graphs.size() >= 2;
        },
        "build_expander deterministic in its seed");
  }

  return out;
}

}  // namespace perfbench
