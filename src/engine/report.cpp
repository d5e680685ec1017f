#include "engine/report.hpp"

#include <cmath>
#include <cstdio>

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

bool write_bench_json(const std::string& path, const std::string& bench_name,
                      const std::vector<RunRecord>& records,
                      std::size_t total_violations, unsigned threads,
                      double wall_ms_total) {
  const std::string json = render_bench_json(
      bench_name, records, total_violations, threads, wall_ms_total);
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) return false;
  std::fwrite(json.data(), 1, json.size(), fp);
  std::fclose(fp);
  return true;
}

}  // namespace ambb::engine
