#include "engine/report.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "runner/fit.hpp"
#include "runner/table.hpp"

namespace ambb::engine {

namespace {

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
}

std::string fixed3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// JSON has no NaN/inf literal; "%.3f" would print "nan" and corrupt the
/// document. Non-finite metrics (e.g. the amortized cost of a zero-slot
/// run) become a structured null instead.
std::string json_number(double v) {
  return std::isfinite(v) ? fixed3(v) : "null";
}

/// Per relaxed oracle, in Oracle order: the status tag, the ".." line
/// wording and the unit its findings count.
struct RelaxedText {
  const char* tag;
  const char* finding;
  const char* unit;
};
constexpr RelaxedText kRelaxedText[] = {
    {"split", "consistency split", "slots"},
    {"degraded", "validity degraded", "commits"},
    {"stalled", "stalled", "node-slots"},
};

}  // namespace

RunRecord to_record(const JobOutcome& outcome) {
  RunRecord rec;
  rec.label = outcome.label;
  rec.wall_ms = outcome.wall_ms;
  rec.violations = outcome.violations.size();
  rec.error = outcome.error;
  if (!outcome.completed) {
    // A job that threw has no trustworthy result; count it as one
    // violation so producers exit non-zero.
    rec.violations += 1;
    return rec;
  }
  const RunResult& r = outcome.result;
  rec.n = r.n;
  rec.f = r.f;
  rec.slots = r.slots;
  rec.rounds = r.rounds;
  rec.honest_bits = r.honest_bits;
  rec.adversary_bits = r.adversary_bits;
  rec.amortized = r.amortized();
  rec.metric = outcome.metric.name;
  if (!rec.metric.empty()) {
    rec.metric_bits = r.amortized_tail(outcome.metric.from);
  }
  rec.kind_names = r.kind_names;
  rec.per_kind_bits = r.per_kind_bits;
  rec.stats = r.stats_summary();
  return rec;
}

std::string render_bench_json(const std::string& bench_name,
                              const std::vector<RunRecord>& records,
                              std::size_t total_violations, unsigned threads,
                              double wall_ms_total) {
  std::string json;
  json += "{\n  \"bench\": \"";
  json_escape_into(json, bench_name);
  json += "\",\n  \"schema_version\": " + std::to_string(kBenchSchemaVersion);
  json += ",\n  \"threads\": " + std::to_string(threads);
  json += ",\n  \"wall_ms_total\": " + fixed3(wall_ms_total);
  json += ",\n  \"violations\": " + std::to_string(total_violations);
  json += ",\n  \"runs\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    json += i == 0 ? "\n" : ",\n";
    json += "    {\"label\": \"";
    json_escape_into(json, r.label);
    json += "\", \"n\": " + std::to_string(r.n);
    json += ", \"f\": " + std::to_string(r.f);
    json += ", \"slots\": " + std::to_string(r.slots);
    json += ", \"rounds\": " + std::to_string(r.rounds);
    json += ", \"honest_bits\": " + std::to_string(r.honest_bits);
    json += ", \"adversary_bits\": " + std::to_string(r.adversary_bits);
    json += ", \"amortized_bits_per_slot\": " + json_number(r.amortized);
    if (!r.metric.empty()) {
      json += ", \"metric\": \"";
      json_escape_into(json, r.metric);
      json += "\", \"metric_bits_per_slot\": " + json_number(r.metric_bits);
    }
    json += ", \"wall_ms\": " + fixed3(r.wall_ms);
    json += ", \"records\": " + std::to_string(r.stats.records);
    json += ", \"deliveries\": " + std::to_string(r.stats.deliveries);
    json += ", \"erasures\": " + std::to_string(r.stats.erasures);
    json += ", \"corruptions\": " + std::to_string(r.stats.corruptions);
    json += ", \"ns_honest\": " + std::to_string(r.stats.ns_honest);
    json += ", \"ns_byzantine\": " + std::to_string(r.stats.ns_byzantine);
    json += ", \"ns_adversary\": " + std::to_string(r.stats.ns_adversary);
    json += ", \"ns_accounting\": " + std::to_string(r.stats.ns_accounting);
    json += ", \"ns_delivery\": " + std::to_string(r.stats.ns_delivery);
    json += ", \"activations\": " + std::to_string(r.stats.activations);
    json += ", \"violations\": " + std::to_string(r.violations);
    json += ", \"per_kind_bits\": {";
    for (std::size_t k = 0; k < r.kind_names.size(); ++k) {
      json += k == 0 ? "\"" : ", \"";
      json_escape_into(json, r.kind_names[k]);
      json += "\": " + std::to_string(r.per_kind_bits[k]);
    }
    json += "}";
    if (!r.error.empty()) {
      json += ", \"error\": \"";
      json_escape_into(json, r.error);
      json += "\"";
    }
    json += "}";
  }
  json += "\n  ]\n}\n";
  return json;
}

int report_campaign(const std::string& name,
                    const std::vector<JobOutcome>& outcomes, unsigned threads,
                    double wall_ms_total, std::size_t extra_violations,
                    const std::vector<SlopeCheck>& slopes) {
  const bool inject = std::getenv("AMBB_BENCH_INJECT_VIOLATION") != nullptr;
  std::vector<RunRecord> records;
  records.reserve(outcomes.size());
  std::size_t violations = extra_violations;
  std::size_t failed_jobs = 0;
  std::array<std::size_t, 3> relaxed_runs{};  // runs per relaxed oracle
  std::uint64_t deferred = 0;
  TextTable t({"run", "rounds", "honest bits", "adv bits", "amortized",
               "erase", "corrupt", "wall ms", "status"});
  std::string notes;  // the "!!" and ".." lines, printed after the table
  for (const JobOutcome& out : outcomes) {
    RunRecord rec = to_record(out);
    if (inject) rec.violations += 1;
    std::string status = "ok";
    if (!out.completed) {
      status = "FAILED";
      ++failed_jobs;
      notes += "!! " + out.label + " did not complete: " + out.error + "\n";
    } else if (rec.violations != 0) {
      status = "VIOLATION";
    }
    if (!out.violations.empty()) {
      notes += "!! " + out.label + ": " +
               std::to_string(out.violations.size()) +
               " property violations (first: " + out.violations[0] + ")\n";
    }
    std::array<std::size_t, 3> count{};
    std::array<const Finding*, 3> first{};
    for (const Finding& f : out.relaxed) {
      const auto o = static_cast<std::size_t>(f.oracle);
      if (count[o]++ == 0) first[o] = &f;
    }
    std::string tags;
    for (std::size_t o = 0; o < count.size(); ++o) {
      if (count[o] == 0) continue;
      ++relaxed_runs[o];
      tags += (tags.empty() ? "" : "+") + std::string(kRelaxedText[o].tag);
      notes += ".. " + out.label + ": " + kRelaxedText[o].finding + " (" +
               std::to_string(count[o]) + " " + kRelaxedText[o].unit +
               ", first: " + first[o]->what + ")\n";
    }
    if (status == "ok" && !tags.empty()) status = tags;
    t.add_row({rec.label, std::to_string(rec.rounds),
               TextTable::bits_human(static_cast<double>(rec.honest_bits)),
               TextTable::bits_human(static_cast<double>(rec.adversary_bits)),
               TextTable::bits_human(rec.amortized),
               std::to_string(rec.stats.erasures),
               std::to_string(rec.stats.corruptions),
               TextTable::num(rec.wall_ms, 1), status});
    deferred += rec.stats.delayed;
    violations += rec.violations;
    records.push_back(std::move(rec));
  }
  if (!records.empty()) std::printf("%s", t.render().c_str());
  std::printf("%s", notes.c_str());
  for (const SlopeCheck& c : slopes) {
    std::vector<double> ns, costs;
    for (std::size_t i : c.runs) {
      if (!(records[i].metric_bits > 0)) continue;  // a failed run, or nan
      ns.push_back(records[i].n);
      costs.push_back(records[i].metric_bits);
    }
    const std::set<double> distinct(ns.begin(), ns.end());
    if (distinct.size() < 2) {
      std::printf("slope %s: skipped (fewer than two n)\n", c.name.c_str());
      continue;
    }
    const double slope = loglog_slope(ns, costs);
    const bool ok = slope >= c.lo && slope <= c.hi;
    if (!ok) ++violations;
    std::printf("%sslope %s: %.2f over n %.0f..%.0f, %s [%.2f, %.2f]\n",
                ok ? "" : "!! ", c.name.c_str(), slope, *distinct.begin(),
                *distinct.rbegin(), ok ? "expect" : "outside", c.lo, c.hi);
  }
  if (relaxed_runs != std::array<std::size_t, 3>{} || deferred != 0) {
    std::printf("relaxed oracles over %zu runs: %zu with degraded validity, "
                "%zu with consistency splits, %zu stalled; %llu deliveries "
                "deferred\n",
                records.size(), relaxed_runs[1], relaxed_runs[0],
                relaxed_runs[2], static_cast<unsigned long long>(deferred));
  }
  if (inject) {
    std::printf("!! AMBB_BENCH_INJECT_VIOLATION is set: one synthetic "
                "violation per run\n");
  }

  const std::string path = "BENCH_" + name + ".json";
  const std::string json =
      render_bench_json(name, records, violations, threads, wall_ms_total);
  std::FILE* fp = std::fopen(path.c_str(), "w");
  const bool written =
      fp != nullptr && std::fwrite(json.data(), 1, json.size(), fp) ==
                           json.size();
  if (fp == nullptr || std::fclose(fp) != 0 || !written) {
    std::fprintf(stderr, "!! could not write %s\n", path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu runs, %u threads, %.1f ms total)\n",
              path.c_str(), records.size(), threads, wall_ms_total);
  if (violations != 0 || failed_jobs != 0) {
    std::printf("!! %zu violations, %zu failed jobs — failing %s\n",
                violations, failed_jobs, name.c_str());
    return 1;
  }
  std::printf("no violations across %zu checked runs\n", records.size());
  return 0;
}

int run_campaign(const char* tool, const std::string& name,
                 const std::vector<Job>& jobs, unsigned workers,
                 const std::vector<SlopeCheck>& slopes) {
  const Engine eng(workers);
  std::printf("%s: %zu jobs on %u worker thread%s\n", tool, jobs.size(),
              eng.jobs(), eng.jobs() == 1 ? "" : "s");
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<JobOutcome> outcomes = eng.run(jobs);
  const double wall_ms_total = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
  return report_campaign(name, outcomes, eng.jobs(), wall_ms_total, 0,
                         slopes);
}

}  // namespace ambb::engine
