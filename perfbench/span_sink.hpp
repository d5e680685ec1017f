// Span tracing for the benchmark's traced run.
//
// SpanSink is a trace::TraceSink owned by the benchmark: it stamps
// steady_clock on every event it receives and keeps, in memory, the two
// event kinds that give a run its time structure — kSlotStart and
// kRoundEnd (with that round's RoundStats phase timers). After the run,
// build_spans() cuts the stamps into a span tree:
//
//   job                      one Engine::run call (run + Definition-2 check)
//   ├── run                  ProtocolInfo::run
//   │   └── slot             kSlotStart to the next kSlotStart
//   │       └── round        previous stamp to this kRoundEnd
//   │           └── sim.honest | sim.byzantine | sim.adversary |
//   │               sim.accounting | sim.delivery   (RoundStats ns_*)
//   └── check                oracle time after the run returned
//
// Children are clipped to their parent's interval and never overlap, so
// the self times of all spans partition the job's wall time exactly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The five simulator phases of one round, in step() order.
inline constexpr std::array<const char*, 5> kPhaseSpans = {
    "sim.honest", "sim.byzantine", "sim.adversary", "sim.accounting",
    "sim.delivery"};

class SpanSink final : public ambb::trace::TraceSink {
 public:
  struct Mark {
    std::int64_t t_ns = 0;
    bool slot_start = false;
    std::array<std::uint64_t, 5> phase_ns{};  ///< kRoundEnd only
  };

  void on_event(const ambb::trace::Event& e) override;

  const std::vector<Mark>& marks() const { return marks_; }
  std::uint64_t events() const { return events_; }

 private:
  std::vector<Mark> marks_;
  std::uint64_t events_ = 0;
};

struct Span {
  const char* name = "";
  std::int32_t parent = -1;  ///< index into the span vector; -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Timestamps of one traced job, taken around the calls into the library.
struct JobStamps {
  std::int64_t job_start = 0;  ///< before Engine::run
  std::int64_t run_start = 0;  ///< inside the job closure, before run()
  std::int64_t run_end = 0;    ///< inside the job closure, after run()
  std::int64_t job_end = 0;    ///< after Engine::run returned
};

/// The span tree of one traced job (see the header comment). Spans are in
/// creation order, parents before children.
std::vector<Span> build_spans(const JobStamps& st,
                              const std::vector<SpanSink::Mark>& marks);

/// Self time per span name, in ns: duration minus the time its children
/// cover. The values sum to the root span's duration.
std::map<std::string, double> self_ns(const std::vector<Span>& spans);

/// Durations of the "slot" spans, in ms.
std::vector<double> slot_ms(const std::vector<Span>& spans);

/// Write spans as tab-separated lines "id parent name start_us end_us",
/// times relative to the root's start. Returns false on an I/O error.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
