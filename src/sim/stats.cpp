#include "sim/stats.hpp"

#include <algorithm>

namespace ambb {

void accumulate(RoundStatsSummary& s, const RoundStats& r) {
  ++s.rounds;
  s.records += r.records;
  s.activations += r.activations;
  s.deliveries += r.deliveries;
  s.honest_bits += r.honest_bits;
  s.adversary_bits += r.adversary_bits;
  s.erasures += r.erasures;
  s.corruptions += r.corruptions;
  s.delayed += r.delayed;
  s.ns_honest += r.ns_honest;
  s.ns_byzantine += r.ns_byzantine;
  s.ns_adversary += r.ns_adversary;
  s.ns_accounting += r.ns_accounting;
  s.ns_delivery += r.ns_delivery;
  s.max_round_deliveries = std::max(s.max_round_deliveries, r.deliveries);
}

RoundStatsSummary summarize(const std::vector<RoundStats>& stats) {
  RoundStatsSummary s;
  for (const RoundStats& r : stats) accumulate(s, r);
  return s;
}

}  // namespace ambb
