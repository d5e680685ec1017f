#include "sim/net_policy.hpp"

#include <cstdint>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace ambb {

namespace {

/// Digit-only parse with an overflow check; rejects empty and any
/// non-digit so "bounded:3x" and "bounded:-1" fail loudly.
std::uint32_t parse_u32_field(const std::string& spec, const std::string& s) {
  AMBB_CHECK_MSG(!s.empty(), "bad net spec '" + spec + "': missing number");
  std::uint64_t v = 0;
  for (char c : s) {
    AMBB_CHECK_MSG(c >= '0' && c <= '9',
                   "bad net spec '" + spec + "': '" + s + "' is not a number");
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    AMBB_CHECK_MSG(v <= 0xFFFFFFFFULL,
                   "bad net spec '" + spec + "': number out of range");
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

const char* net_kind_name(NetKind k) {
  switch (k) {
    case NetKind::kLockstep: return "lockstep";
    case NetKind::kBounded: return "bounded";
    case NetKind::kAsync: return "async";
  }
  return "?";
}

std::string NetPolicy::spec() const {
  switch (kind) {
    case NetKind::kLockstep: return "lockstep";
    case NetKind::kBounded: return "bounded:" + std::to_string(delta);
    case NetKind::kAsync: return "async:" + std::to_string(cap);
  }
  return "?";
}

NetPolicy parse_net_policy(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const bool has_arg = colon != std::string::npos;
  const std::string arg = has_arg ? spec.substr(colon + 1) : std::string{};

  NetPolicy p;
  if (kind == "lockstep") {
    AMBB_CHECK_MSG(!has_arg, "bad net spec '" + spec +
                                 "': lockstep takes no parameter");
    p.kind = NetKind::kLockstep;
  } else if (kind == "bounded") {
    AMBB_CHECK_MSG(has_arg, "bad net spec '" + spec +
                                "': bounded needs a delta, e.g. bounded:2");
    p.kind = NetKind::kBounded;
    p.delta = parse_u32_field(spec, arg);
  } else if (kind == "async") {
    p.kind = NetKind::kAsync;
    if (has_arg) p.cap = parse_u32_field(spec, arg);
    AMBB_CHECK_MSG(p.cap >= 1,
                   "bad net spec '" + spec +
                       "': async cap must be >= 1 (eventual delivery)");
  } else {
    AMBB_CHECK_MSG(false, "bad net spec '" + spec +
                              "': expected lockstep | bounded:<delta> | "
                              "async[:<cap>]");
  }
  return p;
}

NetPolicy make_net_policy(const std::string& spec, std::uint64_t run_seed) {
  NetPolicy p = parse_net_policy(spec);
  // Salt so the network's stream never collides with protocol or
  // adversary streams forked from the same run seed.
  std::uint64_t s = run_seed ^ 0x5E7D0A11C0FFEE42ULL;
  p.seed = splitmix64(s);
  return p;
}

}  // namespace ambb
