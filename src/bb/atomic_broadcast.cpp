#include "bb/atomic_broadcast.hpp"

#include <sstream>

#include "common/check.hpp"

namespace ambb::abc {

void DeliveryQueue::decide(Slot slot, NodeId proposer, Value payload,
                           Round round) {
  AMBB_CHECK(slot >= 1);
  if (slot >= pending_.size()) pending_.resize(slot + 1);
  AMBB_CHECK_MSG(slot > delivered_upto() && !pending_[slot].has_value(),
                 "slot " << slot << " decided twice");
  pending_[slot] = LogEntry{slot, proposer, payload, round};
  drain();
}

std::size_t DeliveryQueue::pending() const {
  std::size_t count = 0;
  for (const auto& p : pending_) {
    if (p.has_value()) ++count;
  }
  return count;
}

void DeliveryQueue::drain() {
  while (true) {
    const Slot next = delivered_upto() + 1;
    if (next >= pending_.size() || !pending_[next].has_value()) return;
    log_.push_back(*pending_[next]);
    pending_[next].reset();
  }
}

AbcResult run_atomic_broadcast(const RunConfig& cfg) {
  AbcResult out;
  out.bb = linear::run_linear(cfg);
  out.replicas.resize(cfg.n);
  for (NodeId v = 0; v < cfg.n; ++v) {
    for (Slot k = 1; k <= cfg.slots; ++k) {
      if (!out.bb.commits.has(v, k)) continue;
      const CommitRecord& c = out.bb.commits.get(v, k);
      out.replicas[v].decide(k, out.bb.senders[k], c.value, c.round);
    }
  }
  return out;
}

std::vector<std::string> check_total_order(const AbcResult& r) {
  std::vector<std::string> errs;
  const DeliveryQueue* reference = nullptr;
  NodeId ref_id = kNoNode;
  for (NodeId v = 0; v < r.bb.n; ++v) {
    if (!r.is_honest(v)) continue;
    if (reference == nullptr) {
      reference = &r.replicas[v];
      ref_id = v;
      continue;
    }
    const auto& a = reference->log();
    const auto& b = r.replicas[v].log();
    const std::size_t common = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (a[i].slot != b[i].slot || a[i].payload != b[i].payload) {
        std::ostringstream os;
        os << "log position " << i << ": replica " << ref_id << " has ("
           << a[i].slot << "," << a[i].payload << ") but replica " << v
           << " has (" << b[i].slot << "," << b[i].payload << ")";
        errs.push_back(os.str());
      }
    }
  }
  return errs;
}

std::vector<std::string> check_agreement(const AbcResult& r) {
  std::vector<std::string> errs;
  Slot max_delivered = 0;
  for (NodeId v = 0; v < r.bb.n; ++v) {
    if (r.is_honest(v)) {
      max_delivered = std::max(max_delivered,
                               r.replicas[v].delivered_upto());
    }
  }
  for (NodeId v = 0; v < r.bb.n; ++v) {
    if (!r.is_honest(v)) continue;
    if (r.replicas[v].delivered_upto() != max_delivered) {
      std::ostringstream os;
      os << "replica " << v << " delivered up to "
         << r.replicas[v].delivered_upto() << " but others reached "
         << max_delivered;
      errs.push_back(os.str());
    }
  }
  return errs;
}

std::vector<std::string> check_abc_validity(const AbcResult& r) {
  std::vector<std::string> errs;
  for (NodeId v = 0; v < r.bb.n; ++v) {
    if (!r.is_honest(v)) continue;
    for (const LogEntry& e : r.replicas[v].log()) {
      if (!r.is_honest(e.proposer)) continue;
      if (e.payload != r.bb.sender_inputs[e.slot]) {
        std::ostringstream os;
        os << "slot " << e.slot << ": honest proposer " << e.proposer
           << " payload " << r.bb.sender_inputs[e.slot]
           << " delivered as " << e.payload << " at replica " << v;
        errs.push_back(os.str());
      }
    }
  }
  return errs;
}

}  // namespace ambb::abc
