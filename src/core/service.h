// RerankService: the deployment-facing facade.
//
// Owns a model's checkpoint, a PRISM engine, an optional full-inference
// reference (the resident HF baseline) for online calibration, and rolling
// service statistics — the piece an application (file search, RAG, agent)
// embeds. Rerank() is thread-safe: requests are admitted through a Scheduler
// (src/core/scheduler.h). With the default `max_inflight == 1` every call
// is served serially, exactly as before; with `max_inflight > 1` the
// carousel scheduler runs concurrent requests through the engine's cyclic
// layer pass, which shares each layer fetch across them, raising throughput
// while keeping each request's result bit-identical to serial execution.
// Online calibration rides beside the scheduler, not inside it: each served
// result is offered to the calibrator after Submit returns, so it works
// under either scheduler. Admission (RequestQueue) and statistics each sit behind one mutex: both
// cost microseconds against an engine pass of tens to hundreds of
// milliseconds.
#ifndef PRISM_SRC_CORE_SERVICE_H_
#define PRISM_SRC_CORE_SERVICE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/core/engine.h"
#include "src/core/online_calibrator.h"
#include "src/core/scheduler.h"
#include "src/runtime/hf_runner.h"
#include "src/runtime/sim_runner.h"

namespace prism {

// How concurrent Rerank calls reach the engine (src/core/scheduler.h):
//   kSerial   — one request at a time (mutex).
//   kCarousel — continuous batching: a cyclic layer pass admits requests at
//               layer-0 boundaries and answers each the moment it finishes.
//   kAuto     — serial when max_inflight == 1, carousel otherwise (default).
// Both produce bit-identical per-request results; they differ only in fetch
// sharing and admission/exit timing.
enum class SchedulerKind { kAuto, kSerial, kCarousel };

// Parses "serial" / "carousel" / "auto" (CHECK on anything else);
// the benches expose it as --scheduler.
SchedulerKind SchedulerKindByName(const std::string& name);

struct ServiceOptions {
  PrismOptions engine;
  // Admission policy; see SchedulerKind. kAuto picks it from max_inflight.
  SchedulerKind scheduler = SchedulerKind::kAuto;
  // Maximum requests resident on the carousel at once. 1 (default) with
  // kAuto keeps the serial scheduler.
  size_t max_inflight = 1;
  // Worker threads for the carousel's compute pool: each request's layer
  // splits its candidates into one block per thread, and a boundary's
  // joiners embed side by side. 0 = max(hardware cores, max_inflight).
  size_t compute_threads = 0;
  // kCarousel only: how long a drained carousel lingers — layer 0 resident,
  // layer 1 already loading — before tearing down. Arrivals inside the
  // window skip the cold streamer start. The cost of a longer window is two
  // layer blobs held resident while idle.
  double carousel_linger_ms = 200.0;
  // When set, a resident HfRunner on the engine's device and precision is
  // built as ground truth, and every Nth served request is sampled for
  // idle-time calibration toward `target_precision`. Works with either
  // scheduler; not with `sim` (checked).
  bool online_calibration = false;
  OnlineCalibratorOptions calibration;
  // Time source for every scheduler wait and queue deadline. nullptr
  // (default) = the shared wall clock — existing callers see identical
  // behaviour. Point it at a SimClock to serve on deterministic virtual
  // time. The pointee must outlive the service.
  Clock* clock = nullptr;
  // Discrete-event service-cost model: when set, the scheduler's target is
  // wrapped in a SimulatedRunner that charges virtual service time on
  // `clock` and memoizes results per unique request (see
  // src/runtime/sim_runner.h). Pair with a SimClock.
  bool sim = false;
};

// Rolling service counters. RerankService accumulates these under one mutex
// and hands out snapshots. Served-latency percentiles are measured by the
// caller (WorkloadReport, perfbench), not here. Work aggregates cover
// *served* requests only: a shed or failed request is counted in
// `shed`/`errors` and nowhere else.
struct ServiceStats {
  size_t requests = 0;
  // Of `requests`: shed on an expired deadline / failed with any other
  // non-ok status. Served requests are `requests - shed - errors`.
  size_t shed = 0;
  size_t errors = 0;
  int64_t total_candidate_layers = 0;  // Served requests only.
  int64_t total_candidates = 0;        // Served requests only.
  // Embedding-cache counters (snapshot-filled by RerankService::stats()
  // from the engine's cache; all zero when embed_cache is off).
  int64_t embed_hits = 0;
  int64_t embed_misses = 0;
  int64_t embed_miss_bytes = 0;

  void Observe(const RerankRequest& request, const RerankResult& result);

  // Clamped: a hand-built snapshot may carry shed + errors > requests, and
  // the unsigned difference must never be allowed to wrap.
  size_t served() const {
    const size_t finished = shed + errors;
    return requests > finished ? requests - finished : 0;
  }

  double EmbedHitRate() const {
    const int64_t total = embed_hits + embed_misses;
    return total == 0 ? 0.0 : static_cast<double>(embed_hits) / static_cast<double>(total);
  }

  // Fraction of full-inference work actually executed on served requests
  // (1.0 = no pruning win). Shed requests burned no layers and contribute
  // to neither numerator nor denominator.
  double WorkFraction(size_t n_layers) const {
    const auto full = static_cast<double>(total_candidates) * static_cast<double>(n_layers);
    return full == 0.0 ? 0.0 : static_cast<double>(total_candidate_layers) / full;
  }
};

// RerankService is itself a Runner: any call site that drives a raw engine
// (the application pipelines in src/apps/ foremost) can be pointed at a
// service — and so at any scheduler — without changing the call site.
// Unlike most Runner implementations, Rerank here is thread-safe.
class RerankService : public Runner {
 public:
  RerankService(const ModelConfig& config, const std::string& checkpoint_path,
                ServiceOptions options, MemoryTracker* tracker = &MemoryTracker::Global());

  // Thread-safe; blocks until the request has been served.
  RerankResult Rerank(const RerankRequest& request) override;

  std::string name() const override { return "service:" + scheduler_->name(); }

  // Idle hook: runs one online-calibration cycle if enabled (no-op
  // otherwise). Returns the measured agreement or NaN. Thread-safe — the
  // calibrator's sample log is mutex-guarded, so this may overlap serving —
  // but it runs full-inference ground truth, so call it when the service is
  // otherwise idle.
  double OnIdle();
  // Null unless online_calibration is set.
  const OnlineCalibrator* calibrator() const { return calibrator_.get(); }

  ServiceStats stats() const;  // Snapshot.
  const ModelConfig& config() const { return config_; }
  float current_threshold() const { return engine_->dispersion_threshold(); }
  const Scheduler& scheduler() const { return *scheduler_; }
  PrismEngine& engine() { return *engine_; }

 private:
  ModelConfig config_;
  std::unique_ptr<PrismEngine> engine_;
  std::unique_ptr<HfRunner> reference_;  // Calibration ground truth (resident HF).
  std::unique_ptr<OnlineCalibrator> calibrator_;
  std::unique_ptr<SimulatedRunner> sim_runner_;  // Only when options.sim.
  std::unique_ptr<Scheduler> scheduler_;
  mutable Mutex stats_mu_;
  ServiceStats stats_ PRISM_GUARDED_BY(stats_mu_);
};

}  // namespace prism

#endif  // PRISM_SRC_CORE_SERVICE_H_
