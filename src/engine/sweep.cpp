#include "engine/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "sim/net_policy.hpp"
#include "trace/trace.hpp"

namespace ambb::engine {

namespace {

std::vector<std::uint32_t> fs_for(const SweepSpec& spec,
                                  const ProtocolInfo& info,
                                  std::uint32_t n) {
  if (spec.f_max) return {info.max_f(n)};
  if (spec.f_frac_den != 0) {
    // Exact integer arithmetic: floor(num * n / den). num and den are
    // parser-capped (den <= 1e9), so num * n fits in 64 bits for any
    // 32-bit n.
    return {static_cast<std::uint32_t>(spec.f_frac_num * n /
                                       spec.f_frac_den)};
  }
  if (spec.f_frac >= 0.0) {
    // Double fallback: snap the fraction to the nearest 1e-9, then apply
    // the same exact floor. static_cast<uint32_t>(f_frac * n) truncated
    // float noise (0.3 * 10 = 2.999... -> 2); this yields 3.
    const auto num = static_cast<std::uint64_t>(
        std::llround(spec.f_frac * 1e9));
    return {static_cast<std::uint32_t>(num * n / 1000000000ULL)};
  }
  if (!spec.fs.empty()) return spec.fs;
  // No fault-load key at all: a third of the nodes, the conventional
  // "some faults, every family tolerates it" default.
  return {n / 3};
}

std::vector<Slot> slots_for(const SweepSpec& spec, std::uint32_t n) {
  if (spec.slots_per_n != 0) {
    // 64-bit product: in 32 bits, slots-per-n 2^30 at n=4 wraps to a
    // 0-slot run that trivially passes every check.
    const std::uint64_t slots = std::uint64_t{spec.slots_per_n} * n;
    AMBB_CHECK_MSG(slots <= std::numeric_limits<Slot>::max(),
                   "sweep '" << spec.name << "': slots-per-n "
                             << spec.slots_per_n << " at n=" << n << " gives "
                             << slots << " slots, more than 2^32 - 1");
    return {static_cast<Slot>(slots)};
  }
  if (!spec.slots_list.empty()) return spec.slots_list;
  return {Slot{8}};
}

}  // namespace

std::vector<SweepJob> expand(const SweepSpec& spec) {
  const ProtocolInfo& info = protocol(spec.protocol);  // validates the name
  AMBB_CHECK_MSG(!spec.ns.empty(), "sweep '" << spec.name << "': empty n list");
  AMBB_CHECK_MSG(!spec.adversaries.empty(),
                 "sweep '" << spec.name << "': empty adversary list");
  AMBB_CHECK_MSG(spec.seed_begin <= spec.seed_end,
                 "sweep '" << spec.name << "': seed range is backwards");
  AMBB_CHECK_MSG(spec.repetitions >= 1,
                 "sweep '" << spec.name << "': reps must be >= 1");
  for (Slot L : spec.slots_list) {
    AMBB_CHECK_MSG(L >= 1, "sweep '" << spec.name << "': slots must be >= 1");
  }
  for (const auto& adv : spec.adversaries) {
    AMBB_CHECK_MSG(accepts_adversary(info, adv),
                   "sweep '" << spec.name << "': protocol '" << spec.protocol
                             << "' does not accept adversary '" << adv << "'");
  }
  // An empty net list is the off-axis sentinel {"lockstep"}; every entry
  // must parse so a typo fails at expansion, not mid-sweep.
  const std::vector<std::string> nets =
      spec.nets.empty() ? std::vector<std::string>{"lockstep"} : spec.nets;
  for (const auto& net : nets) parse_net_policy(net);

  const std::string prefix = spec.name.empty() ? spec.protocol : spec.name;
  const bool many_seeds = spec.seed_begin != spec.seed_end;

  std::vector<SweepJob> out;
  for (std::uint32_t n : spec.ns) {
    const auto fs = fs_for(spec, info, n);
    const auto slots = slots_for(spec, n);
    for (std::uint32_t f : fs) {
      AMBB_CHECK_MSG(f < n, "sweep '" << spec.name << "': f=" << f
                                      << " >= n=" << n);
      for (Slot L : slots) {
        // An empty payload list is the off-axis sentinel {0}.
        const std::vector<std::uint64_t> payloads =
            spec.payloads.empty() ? std::vector<std::uint64_t>{0}
                                  : spec.payloads;
        for (std::uint64_t payload : payloads) {
          const bool is_ext = spec.protocol.rfind("ext:", 0) == 0;
          if (payload != 0 && !is_ext) {
            AMBB_CHECK_MSG(payload <= 0x1FFFFFFFULL,
                           "sweep '" << spec.name << "': payload " << payload
                                     << " bytes overflows value-bits for a "
                                        "non-ext protocol");
          }
          for (const auto& net : nets) {
            const bool lockstep_net = net == "lockstep";
            for (const auto& adv : spec.adversaries) {
              // Non-lockstep cells relax the synchrony-conditional
              // oracles: a delayed delivery can push the last commits
              // past the fixed round horizon (termination), and a
              // delayed honest sender is indistinguishable from a
              // silent one (validity). Consistency stays a hard
              // failure — except for rows whose agreement argument is
              // itself a round deadline (consistency_needs_sync in the
              // registry: the Dolev-Strong relay step, TrustCast,
              // chunk dispersal), which may legally split under delays.
              const bool stall_ok = may_stall(info, adv) || !lockstep_net;
              for (std::uint64_t seed = spec.seed_begin;
                   seed <= spec.seed_end; ++seed) {
                for (std::uint32_t rep = 0; rep < spec.repetitions; ++rep) {
                  SweepJob sj;
                  sj.protocol = spec.protocol;
                  sj.allow_stall = stall_ok;
                  sj.allow_invalid = !lockstep_net;
                  sj.allow_split =
                      !lockstep_net && info.consistency_needs_sync;
                  sj.params.n = n;
                  sj.params.f = f;
                  sj.params.slots = L;
                  sj.params.seed = seed;
                  sj.params.adversary = adv;
                  sj.params.eps = spec.eps;
                  sj.params.kappa_bits = spec.kappa_bits;
                  sj.params.value_bits = spec.value_bits;
                  sj.params.payload_bytes = payload;
                  sj.params.net = net;
                  // A raw (non-ext) row carries the payload inline: the
                  // value width IS the payload width (registry.hpp).
                  if (payload != 0 && !is_ext) {
                    sj.params.value_bits =
                        static_cast<std::uint32_t>(8 * payload);
                  }

                  std::ostringstream label;
                  label << prefix << "/" << adv << "/n" << n;
                  // Keep labels short: only dimensions the spec actually
                  // sweeps (or sets off-default) appear after n.
                  if (fs.size() > 1) label << "/f" << f;
                  if (slots.size() > 1) label << "/L" << L;
                  if (payloads.size() > 1) label << "/p" << payload;
                  if (nets.size() > 1 || !lockstep_net) label << "/" << net;
                  if (many_seeds) label << "/s" << seed;
                  if (spec.repetitions > 1) label << "/r" << (rep + 1);
                  sj.label = label.str();
                  out.push_back(std::move(sj));
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::vector<SweepJob> expand_all(const std::vector<SweepSpec>& specs) {
  std::vector<SweepJob> out;
  for (const auto& s : specs) {
    auto jobs = expand(s);
    out.insert(out.end(), std::make_move_iterator(jobs.begin()),
               std::make_move_iterator(jobs.end()));
  }
  return out;
}

std::vector<SweepJob> filter_jobs(std::vector<SweepJob> jobs,
                                  const std::string& needle) {
  if (needle.empty()) return jobs;
  std::vector<SweepJob> out;
  for (auto& j : jobs) {
    if (j.label.find(needle) != std::string::npos) out.push_back(std::move(j));
  }
  return out;
}

Job to_engine_job(const SweepJob& sj) {
  const ProtocolInfo& info = protocol(sj.protocol);
  // The closure copies the params and takes the registry entry by
  // reference (the registry is an immutable magic static); each
  // invocation builds a fresh Simulation/ledger/RNG inside the driver.
  CommonParams params = sj.params;
  return Job{sj.label, [&info, params] { return info.run(params); },
             sj.allow_stall, sj.allow_invalid, sj.allow_split};
}

std::vector<Job> to_engine_jobs(const std::vector<SweepJob>& sjs) {
  std::vector<Job> out;
  out.reserve(sjs.size());
  for (const auto& sj : sjs) out.push_back(to_engine_job(sj));
  return out;
}

std::string trace_path(const std::string& dir, std::size_t index,
                       const std::string& label) {
  std::string name = label;
  for (char& c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) c = '-';
  }
  std::ostringstream os;
  os << dir << '/' << std::setw(4) << std::setfill('0') << index << '_'
     << name << ".jsonl";
  return os.str();
}

std::vector<Job> to_engine_jobs(const std::vector<SweepJob>& sjs,
                                const std::string& trace_dir) {
  if (trace_dir.empty()) return to_engine_jobs(sjs);
  std::vector<Job> out;
  out.reserve(sjs.size());
  for (std::size_t i = 0; i < sjs.size(); ++i) {
    const SweepJob& sj = sjs[i];
    const ProtocolInfo& info = protocol(sj.protocol);
    CommonParams params = sj.params;
    std::string path = trace_path(trace_dir, i, sj.label);
    out.push_back(Job{sj.label,
                      [&info, params, path = std::move(path)] {
                        std::ofstream os(path,
                                         std::ios::binary | std::ios::trunc);
                        AMBB_CHECK_MSG(os, "cannot open trace file " << path);
                        trace::JsonlSink sink(os);
                        return info.run(RunRequest{params, &sink});
                      },
                      sj.allow_stall, sj.allow_invalid, sj.allow_split});
  }
  return out;
}

namespace {

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) {
    if (t[0] == '#') break;  // trailing comment
    toks.push_back(t);
  }
  return toks;
}

template <class T>
T parse_num(const std::string& tok, int lineno) {
  std::istringstream is(tok);
  T v{};
  is >> v;
  AMBB_CHECK_MSG(!is.fail() && is.eof(),
                 "spec line " << lineno << ": bad number '" << tok << "'");
  return v;
}

/// "f-frac" accepts a rational "p/q" or a decimal literal ("0.3" = 3/10),
/// both parsed into an exact numerator/denominator. At most 9 fractional
/// digits so num * n cannot overflow 64 bits.
void parse_f_frac(const std::string& tok, int lineno, SweepSpec* cur) {
  cur->f_frac = -1.0;
  const auto slash = tok.find('/');
  if (slash != std::string::npos) {
    cur->f_frac_num =
        parse_num<std::uint64_t>(tok.substr(0, slash), lineno);
    cur->f_frac_den = parse_num<std::uint64_t>(tok.substr(slash + 1), lineno);
    AMBB_CHECK_MSG(cur->f_frac_den != 0,
                   "spec line " << lineno << ": zero denominator in '" << tok
                                << "'");
    AMBB_CHECK_MSG(cur->f_frac_den <= 1000000000ULL &&
                       cur->f_frac_num <= cur->f_frac_den,
                   "spec line " << lineno << ": f-frac '" << tok
                                << "' must be a fraction <= 1 with "
                                   "denominator <= 1e9");
    return;
  }
  std::uint64_t num = 0;
  std::uint64_t den = 1;
  bool seen_dot = false;
  bool seen_digit = false;
  for (char c : tok) {
    if (c == '.') {
      AMBB_CHECK_MSG(!seen_dot, "spec line " << lineno << ": bad f-frac '"
                                             << tok << "'");
      seen_dot = true;
      continue;
    }
    AMBB_CHECK_MSG(c >= '0' && c <= '9',
                   "spec line " << lineno << ": bad f-frac '" << tok << "'");
    seen_digit = true;
    num = num * 10 + static_cast<std::uint64_t>(c - '0');
    if (seen_dot) den *= 10;
    AMBB_CHECK_MSG(den <= 1000000000ULL,
                   "spec line " << lineno << ": f-frac '" << tok
                                << "' has more than 9 fractional digits");
  }
  AMBB_CHECK_MSG(seen_digit && num <= den,
                 "spec line " << lineno << ": f-frac '" << tok
                              << "' must be a fraction in [0, 1]");
  cur->f_frac_num = num;
  cur->f_frac_den = den;
}

}  // namespace

std::vector<SweepSpec> parse_spec(const std::string& text) {
  std::vector<SweepSpec> specs;
  std::vector<int> spec_lines;  // line of each block's 'sweep' key
  SweepSpec* cur = nullptr;

  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto toks = tokens_of(line);
    if (toks.empty()) continue;
    const std::string& key = toks[0];
    const std::size_t nargs = toks.size() - 1;

    if (key == "sweep") {
      AMBB_CHECK_MSG(nargs == 1, "spec line " << lineno
                                              << ": 'sweep' needs one name");
      specs.emplace_back();
      spec_lines.push_back(lineno);
      cur = &specs.back();
      cur->name = toks[1];
      continue;
    }
    AMBB_CHECK_MSG(cur != nullptr, "spec line "
                                       << lineno
                                       << ": key before any 'sweep' block");
    AMBB_CHECK_MSG(nargs >= 1, "spec line " << lineno << ": '" << key
                                            << "' needs a value");

    if (key == "protocol") {
      cur->protocol = toks[1];
    } else if (key == "n") {
      cur->ns.clear();
      for (std::size_t i = 1; i < toks.size(); ++i) {
        cur->ns.push_back(parse_num<std::uint32_t>(toks[i], lineno));
      }
    } else if (key == "f") {
      if (toks[1] == "max") {
        cur->f_max = true;
      } else {
        cur->fs.clear();
        for (std::size_t i = 1; i < toks.size(); ++i) {
          cur->fs.push_back(parse_num<std::uint32_t>(toks[i], lineno));
        }
      }
    } else if (key == "f-frac") {
      parse_f_frac(toks[1], lineno, cur);
    } else if (key == "slots") {
      cur->slots_list.clear();
      for (std::size_t i = 1; i < toks.size(); ++i) {
        const auto L = parse_num<Slot>(toks[i], lineno);
        AMBB_CHECK_MSG(L >= 1, "spec line " << lineno
                                            << ": slots must be >= 1");
        cur->slots_list.push_back(L);
      }
    } else if (key == "slots-per-n") {
      cur->slots_per_n = parse_num<std::uint32_t>(toks[1], lineno);
      AMBB_CHECK_MSG(cur->slots_per_n >= 1,
                     "spec line " << lineno << ": slots-per-n must be >= 1");
    } else if (key == "adversary") {
      cur->adversaries.assign(toks.begin() + 1, toks.end());
    } else if (key == "seeds") {
      AMBB_CHECK_MSG(nargs == 2,
                     "spec line " << lineno << ": 'seeds' needs begin end");
      cur->seed_begin = parse_num<std::uint64_t>(toks[1], lineno);
      cur->seed_end = parse_num<std::uint64_t>(toks[2], lineno);
    } else if (key == "reps") {
      cur->repetitions = parse_num<std::uint32_t>(toks[1], lineno);
    } else if (key == "eps") {
      cur->eps = parse_num<double>(toks[1], lineno);
    } else if (key == "kappa") {
      cur->kappa_bits = parse_num<std::uint32_t>(toks[1], lineno);
    } else if (key == "value-bits") {
      cur->value_bits = parse_num<std::uint32_t>(toks[1], lineno);
    } else if (key == "payload") {
      cur->payloads.clear();
      for (std::size_t i = 1; i < toks.size(); ++i) {
        const auto p = parse_num<std::uint64_t>(toks[i], lineno);
        AMBB_CHECK_MSG(p >= 1, "spec line " << lineno
                                            << ": payload must be >= 1 byte");
        cur->payloads.push_back(p);
      }
    } else if (key == "net") {
      cur->nets.assign(toks.begin() + 1, toks.end());
      for (std::size_t i = 1; i < toks.size(); ++i) {
        parse_net_policy(toks[i]);  // fail on the offending line, not later
      }
    } else {
      AMBB_CHECK_MSG(false,
                     "spec line " << lineno << ": unknown key '" << key << "'");
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    AMBB_CHECK_MSG(!specs[i].protocol.empty(),
                   "spec line " << spec_lines[i] << ": sweep '"
                                << specs[i].name
                                << "' has no 'protocol' key");
  }
  return specs;
}

}  // namespace ambb::engine
