// Host-speed probe: a fixed piece of work that uses no library code,
// timed before each of the benchmark's repetitions. On a shared host the
// speed of memory-bound code drifts by tens of percent from minute to
// minute; the probe's median over a run tracks that drift, and main.cpp
// divides it out of the end-to-end timings (README.md, "Host-speed
// correction").
#pragma once

namespace perfbench {

/// The probe's duration on the reference host. A corrected time is the
/// raw time × kProbeNominalMs ÷ the run's median probe time.
constexpr double kProbeNominalMs = 20.0;

/// Run the probe once and return its wall time in ms. Each call does the
/// same amount of work: 20,000 steady-state updates of a std::map of up
/// to 50,000 keys whose values are 64–319-byte vectors (about 15 MB in
/// all), which is the simulator's own mix of allocation and pointer
/// chasing. The map allocates only from a fixed arena of its own, so the
/// probe does not depend on the state of the process heap. The first
/// call builds and fills the map; the map and arena then stay resident.
double host_probe_ms();

}  // namespace perfbench
