// Closed- and open-loop load generation with a warmup/measure split.
//
// Closed loop: `callers` threads each run their warmup calls, meet at a
// barrier (the measure phase starts there), then issue one call after the
// other, with an optional think time between them, until the measure window
// closes or the request cap is reached.
//
// Open loop: a fixed arrival schedule (ms after start) decided before the
// run. `callers` sender threads take arrivals in order, sleep until each is
// due and make the call; latency is timed from the due time, so a stall
// delays every later request's clock, and `lag_ms` records how late the
// sender started it. Arrivals due before `warmup_ms` are warmup.
//
// The measure window runs from the measure start to the last measured
// completion; process CPU time and peak RSS are taken over that window.
#ifndef PERFBENCH_SRC_LOADGEN_H_
#define PERFBENCH_SRC_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

struct LoadOptions {
  size_t callers = 1;
  double seconds = 10.0;  // Closed loop: stop issuing after this long.
  size_t max_requests = 0;     // Closed loop: cap on measured calls.
  size_t warmup_per_caller = 0;  // Closed loop.
  // Closed loop: mean pause between a reply and the caller's next request,
  // drawn uniformly from [0.5, 1.5] × think_ms per call from `seed`.
  double think_ms = 0.0;
  uint64_t seed = 0;
  std::vector<double> arrivals_ms;  // Open loop when non-empty.
  double warmup_ms = 0.0;           // Open loop.
  // Runs once, on one thread, when the measure phase starts.
  std::function<void()> on_measure_start;
};

struct RequestTiming {
  size_t index = 0;  // Measured-request index passed to the call.
  double latency_ms = 0.0;
  double lag_ms = 0.0;  // Open loop: start minus due time.
};

struct LoadReport {
  std::vector<RequestTiming> timings;  // Measured calls, by index.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
  bool rss_reset = false;
};

// `call(index, warmup)`: warmup calls and measured calls each count their
// index from 0. Must be safe to run from several threads at once.
using LoadCall = std::function<void(size_t index, bool warmup)>;

LoadReport RunLoad(const LoadOptions& options, const LoadCall& call);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOADGEN_H_
