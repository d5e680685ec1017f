// Quickstart: run the paper's amortized-linear multi-shot Byzantine
// broadcast (Algorithm 4) for a handful of slots, with a third of the
// nodes Byzantine, and inspect commits and communication cost.
//
//   $ ./examples/quickstart [n] [f] [slots] [adversary]
//
// Adversaries: none | silent | equivocate | selective | flood | mixed |
// adaptive-erase (see bb/linear_adversary.hpp).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bb/linear_bb.hpp"
#include "runner/result.hpp"
#include "runner/table.hpp"

int main(int argc, char** argv) {
  using namespace ambb;

  RunConfig cfg;
  cfg.n = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 16;
  cfg.f = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 6;
  cfg.slots = argc > 3 ? static_cast<Slot>(std::atoi(argv[3])) : 8;
  cfg.adversary = argc > 4 ? argv[4] : "mixed";
  cfg.seed = 2023;
  cfg.eps = 0.1;  // tolerates f <= (1/2 - eps) n

  std::printf("multi-shot Byzantine broadcast, Algorithm 4 (PODC'23)\n");
  std::printf("n=%u f=%u slots=%u adversary=%s kappa=%u bits\n\n", cfg.n,
              cfg.f, cfg.slots, cfg.adversary.c_str(), cfg.kappa_bits);

  RunResult r = linear::run_linear(cfg);

  // Every honest node must have committed the same value in every slot.
  TextTable t({"slot", "sender", "sender status", "committed value",
               "honest bits"});
  for (Slot k = 1; k <= cfg.slots; ++k) {
    const NodeId s = r.senders[k];
    Value v = kBotValue;
    for (NodeId u = 0; u < cfg.n; ++u) {
      if (!r.corrupt[u] && r.commits.has(u, k)) {
        v = r.commits.get(u, k).value;
        break;
      }
    }
    char val[32];
    std::snprintf(val, sizeof val, "%016llx",
                  static_cast<unsigned long long>(v));
    t.add_row({std::to_string(k), std::to_string(s),
               r.corrupt[s] ? "corrupt" : "honest", val,
               TextTable::bits_human(
                   static_cast<double>(r.per_slot_bits[k]))});
  }
  std::printf("%s\n", t.render().c_str());

  auto errs = check_all(r);
  if (errs.empty()) {
    std::printf("consistency + termination + validity: OK\n");
  } else {
    for (const auto& e : errs) std::printf("PROPERTY VIOLATION: %s\n", e.c_str());
    return 1;
  }
  std::printf("total honest bits: %s (amortized %s/slot; adversary sent %s)\n",
              TextTable::bits_human(
                  static_cast<double>(r.honest_bits)).c_str(),
              TextTable::bits_human(r.amortized()).c_str(),
              TextTable::bits_human(
                  static_cast<double>(r.adversary_bits)).c_str());
  return 0;
}
