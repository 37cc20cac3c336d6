// Wall-clock timing helpers used by the latency benchmarks.
#ifndef PRISM_SRC_COMMON_TIMER_H_
#define PRISM_SRC_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace prism {

// Monotonic wall clock, microsecond resolution.
//
// This is the *measurement* clock — it times real compute and device work
// (bench latencies, SSD transfer charging, stage attribution), which runs at
// wall speed even under a SimClock (see src/common/clock.h: only waiting is
// virtualized). Anything that *schedules* — deadlines, arrivals, sleeps,
// TTLs — must go through the Clock seam instead, so the project linter bans
// raw std::chrono clock reads; this helper is the audited exception.
inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             // prism-lint: allow(wall-clock): the measurement clock for real
             // compute/device-domain durations; scheduling time lives on the
             // Clock seam (src/common/clock.h).
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class WallTimer {
 public:
  WallTimer() : start_(NowMicros()) {}

  void Reset() { start_ = NowMicros(); }
  int64_t ElapsedMicros() const { return NowMicros() - start_; }
  double ElapsedMillis() const { return static_cast<double>(ElapsedMicros()) / 1000.0; }
  double ElapsedSeconds() const { return static_cast<double>(ElapsedMicros()) / 1e6; }

 private:
  int64_t start_;
};

}  // namespace prism

#endif  // PRISM_SRC_COMMON_TIMER_H_
