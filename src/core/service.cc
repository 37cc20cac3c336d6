#include "src/core/service.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace prism {

void ServiceStats::Observe(const RerankRequest& request, const RerankResult& result) {
  ++requests;
  if (!result.status.ok()) {
    if (result.status.code() == StatusCode::kDeadlineExceeded) {
      ++shed;
    } else {
      ++errors;
    }
    return;
  }
  total_candidate_layers += result.stats.candidate_layers;
  total_candidates += static_cast<int64_t>(request.docs.size());
}

SchedulerKind SchedulerKindByName(const std::string& name) {
  if (name == "auto") {
    return SchedulerKind::kAuto;
  }
  if (name == "serial") {
    return SchedulerKind::kSerial;
  }
  if (name == "carousel") {
    return SchedulerKind::kCarousel;
  }
  PRISM_CHECK_MSG(false, ("unknown scheduler: " + name).c_str());
  return SchedulerKind::kAuto;
}

RerankService::RerankService(const ModelConfig& config, const std::string& checkpoint_path,
                             ServiceOptions options, MemoryTracker* tracker)
    : config_(config) {
  Clock* clock = ResolveClock(options.clock);
  engine_ = std::make_unique<PrismEngine>(config, checkpoint_path, options.engine, tracker);
  SchedulerKind kind = options.scheduler;
  if (kind == SchedulerKind::kAuto) {
    kind = options.max_inflight > 1 ? SchedulerKind::kCarousel : SchedulerKind::kSerial;
  }
  if (options.online_calibration) {
    // Ground truth is the resident HF baseline: full inference with every
    // layer in memory, so idle-time replays never wait on the device.
    HfRunnerOptions reference_options;
    reference_options.device = options.engine.device;
    reference_options.precision = options.engine.precision;
    reference_ = std::make_unique<HfRunner>(config, checkpoint_path, reference_options, tracker);
    calibrator_ = std::make_unique<OnlineCalibrator>(engine_.get(), reference_.get(),
                                                     options.calibration);
  }
  CarouselRunner* target = engine_.get();
  if (options.sim) {
    PRISM_CHECK_MSG(!options.online_calibration,
                    "online calibration cannot run through the simulated cost model: it "
                    "memoizes each request's result, which would hide a threshold nudge");
    sim_runner_ = std::make_unique<SimulatedRunner>(target, config.n_layers, clock);
    target = sim_runner_.get();
  }
  const size_t inflight = std::max<size_t>(options.max_inflight, 1);
  switch (kind) {
    case SchedulerKind::kCarousel:
      scheduler_ = std::make_unique<CarouselScheduler>(target, inflight, options.compute_threads,
                                                       options.carousel_linger_ms, clock);
      break;
    case SchedulerKind::kSerial:
      scheduler_ = std::make_unique<SerialScheduler>(target, clock);
      break;
    case SchedulerKind::kAuto:
      PRISM_CHECK_MSG(false, "kAuto resolved above");
      break;
  }
}

RerankResult RerankService::Rerank(const RerankRequest& request) {
  // A malformed request fails alone, before any scheduler or engine sees it.
  RerankResult result;
  result.status = ValidateRequest(config_, request);
  if (result.status.ok()) {
    result = scheduler_->Submit(request);
  }
  if (calibrator_ != nullptr) {
    calibrator_->Observe(request, result);
  }
  {
    MutexLock lock(stats_mu_);
    stats_.Observe(request, result);
  }
  return result;
}

double RerankService::OnIdle() {
  if (calibrator_ == nullptr) {
    return std::nan("");
  }
  return calibrator_->RunIdleCycle();
}

ServiceStats RerankService::stats() const {
  ServiceStats snapshot;
  {
    MutexLock lock(stats_mu_);
    snapshot = stats_;
  }
  // Embedding-cache counters ride the snapshot (they live in the cache, not
  // under stats_mu_).
  const std::optional<EmbeddingCacheStats> embed = engine_->embed_cache_stats();
  if (embed.has_value()) {
    snapshot.embed_hits = embed->hits;
    snapshot.embed_misses = embed->misses;
    snapshot.embed_miss_bytes = embed->miss_bytes;
  }
  return snapshot;
}

}  // namespace prism
