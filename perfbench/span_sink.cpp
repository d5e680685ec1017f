#include "span_sink.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

void SpanSink::on_event(const ambb::trace::Event& e) {
  const std::int64_t t = now_ns();
  ++events_;
  if (e.kind == ambb::trace::EventKind::kSlotStart) {
    marks_.push_back(Mark{t, true, {}});
  } else if (e.kind == ambb::trace::EventKind::kRoundEnd) {
    marks_.push_back(Mark{t,
                          false,
                          {e.stats.ns_honest, e.stats.ns_byzantine,
                           e.stats.ns_adversary, e.stats.ns_accounting,
                           e.stats.ns_delivery}});
  }
}

std::vector<Span> build_spans(const JobStamps& st,
                              const std::vector<SpanSink::Mark>& marks) {
  std::vector<Span> spans;
  spans.reserve(1 + 2 * marks.size() + 5 * marks.size());
  auto add = [&spans](const char* name, std::int32_t parent,
                      std::int64_t start, std::int64_t end) {
    spans.push_back(Span{name, parent, start, end});
    return static_cast<std::int32_t>(spans.size() - 1);
  };
  const std::int32_t job = add("job", -1, st.job_start, st.job_end);
  const std::int32_t run = add("run", job, st.run_start, st.run_end);

  // Stamps are taken on one thread in program order, but clamp anyway so
  // a child can never leave its parent's interval.
  auto clamp = [&](std::int64_t t) {
    return std::clamp(t, st.run_start, st.run_end);
  };
  std::int64_t cursor = st.run_start;
  std::int32_t slot = -1;
  for (const SpanSink::Mark& m : marks) {
    const std::int64_t t = std::max(cursor, clamp(m.t_ns));
    if (m.slot_start) {
      if (slot >= 0) spans[slot].end_ns = t;
      slot = add("slot", run, t, t);
      cursor = t;
      continue;
    }
    const std::int32_t round = add("round", slot >= 0 ? slot : run, cursor, t);
    // step() runs its phases back to back at the end of the round's
    // interval; lay them out in order, ending at the kRoundEnd stamp.
    std::uint64_t total = 0;
    for (std::uint64_t ns : m.phase_ns) total += ns;
    std::int64_t at =
        t - std::min(static_cast<std::int64_t>(total), t - cursor);
    for (std::size_t p = 0; p < kPhaseSpans.size(); ++p) {
      const std::int64_t end =
          std::min(t, at + static_cast<std::int64_t>(m.phase_ns[p]));
      add(kPhaseSpans[p], round, at, end);
      at = end;
    }
    cursor = t;
    if (slot >= 0) spans[slot].end_ns = t;
  }
  add("check", job, st.run_end, st.job_end);
  return spans;
}

std::map<std::string, double> self_ns(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - child[i]);
  }
  return out;
}

std::vector<double> slot_ms(const std::vector<Span>& spans) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "slot") {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (fp == nullptr) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(fp, "id\tparent\tname\tstart_us\tend_us\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(fp, "%zu\t%d\t%s\t%.3f\t%.3f\n", i, s.parent, s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - t0) / 1e3);
  }
  return std::fclose(fp) == 0;
}

}  // namespace perfbench
