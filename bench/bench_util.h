// Shared plumbing for the paper-reproduction bench binaries.
//
// Each binary regenerates one table/figure of the paper's evaluation (see
// docs/REPRODUCING.md, "Running the benchmarks"). Conventions: the *global* MemoryTracker is reset before each
// measured run so peak/avg/timeline reflect exactly that run; runners are
// constructed fresh per run (checkpoint load time is excluded via a
// post-construction tracker reset where noted).
#ifndef PRISM_BENCH_BENCH_UTIL_H_
#define PRISM_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/memory_tracker.h"
#include "src/core/engine.h"
#include "src/data/dataset.h"
#include "src/data/metrics.h"
#include "src/model/synthetic.h"
#include "src/runtime/device.h"
#include "src/runtime/hf_runner.h"

namespace prism {

inline constexpr uint64_t kBenchSeed = 42;
inline constexpr uint64_t kDataSeed = 7;

// Paper-matching "Low"/"High" dispersion thresholds used in Figs 8/10.
inline constexpr float kThresholdLow = 0.15f;
inline constexpr float kThresholdHigh = 0.40f;

// VRAM-budget stand-in for the OOM rows of Table 3 / Fig 8: the paper's RTX
// 5070 (8 GiB) cannot hold the 4B/8B models; our budgets scale that boundary
// to the zoo (0.6B/MiniCPM/M3 fit, 4B/8B do not).
int64_t VramBudgetBytes(const DeviceProfile& device);

// Predicted resident footprint of the HF baseline (weights + embedding +
// batch activations) — used to declare OOM without running.
int64_t EstimateHfPeakBytes(const ModelConfig& config, const DeviceProfile& device,
                            size_t n_candidates, size_t seq_len, Precision precision);

// Runner factories. All read checkpoints generated on demand under /tmp.
std::unique_ptr<Runner> MakeHf(const ModelConfig& config, const DeviceProfile& device,
                               Precision precision);
std::unique_ptr<Runner> MakeOffload(const ModelConfig& config, const DeviceProfile& device,
                                    Precision precision);
std::unique_ptr<PrismEngine> MakePrism(const ModelConfig& config, const DeviceProfile& device,
                                       float threshold, Precision precision);
std::unique_ptr<PrismEngine> MakePrismWith(const ModelConfig& config, PrismOptions options);

// Aggregate over a set of requests with ground truth.
struct BenchRun {
  double mean_latency_ms = 0.0;
  double mean_precision = 0.0;   // Precision@K vs planted ground truth.
  double peak_mib = 0.0;         // Peak tracked memory during the runs.
  double avg_mib = 0.0;          // Time-weighted average.
  double mean_candidate_layers = 0.0;
  double io_stall_ms = 0.0;
  std::vector<std::vector<size_t>> topks;
};

struct BenchCase {
  RerankRequest request;
  std::vector<size_t> relevant;
};

std::vector<BenchCase> MakeCases(const ModelConfig& config, const std::string& dataset,
                                 size_t queries, size_t candidates, size_t k);

// Runs all cases through `runner`, tracking memory on the global tracker.
BenchRun RunCases(Runner* runner, const std::vector<BenchCase>& cases);

double MiB(int64_t bytes);

// Splits a comma-separated flag value, skipping empty items ("a,,b" → a, b).
std::vector<std::string> SplitCsv(const std::string& csv);

// Resets the global tracker, then builds the runner, so construction-time
// claims (resident weights, embedding table/cache) are part of the measured
// footprint. Never reset the tracker while a runner is alive — its
// destructor would release untracked claims.
template <typename Factory>
auto FreshRunner(Factory&& factory) {
  MemoryTracker::Global().Reset();
  return factory();
}

// Writes one formatted row: name then columns.
void PrintHeader(const std::string& title);

}  // namespace prism

#endif  // PRISM_BENCH_BENCH_UTIL_H_
