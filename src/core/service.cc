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

void ServiceStats::Merge(const ServiceStats& other) {
  requests += other.requests;
  shed += other.shed;
  errors += other.errors;
  total_candidate_layers += other.total_candidate_layers;
  total_candidates += other.total_candidates;
  embed_hits += other.embed_hits;
  embed_misses += other.embed_misses;
  embed_miss_bytes += other.embed_miss_bytes;
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
    PRISM_CHECK_MSG(kind == SchedulerKind::kSerial,
                    "online calibration samples through a serial log; use the serial scheduler "
                    "(max_inflight == 1)");
    PRISM_CHECK_MSG(options.runner_override == nullptr,
                    "runner_override would bypass the calibrator's sample log");
    PrismOptions reference_options = options.engine;
    reference_options.pruning = false;
    // Ground-truth runs happen at idle time; they should not distort the
    // serving path's memory accounting or wait on the simulated device.
    reference_options.streaming = false;
    reference_options.embed_cache = false;
    reference_options.device.ssd.throttle = false;
    reference_ = std::make_unique<PrismEngine>(config, checkpoint_path, reference_options,
                                               tracker);
    calibrator_ = std::make_unique<OnlineCalibrator>(engine_.get(), reference_.get(),
                                                     options.calibration);
  }
  CarouselRunner* target =
      options.runner_override != nullptr ? options.runner_override : engine_.get();
  if (options.sim.enabled) {
    PRISM_CHECK_MSG(!options.online_calibration,
                    "online calibration measures real engine timing; it cannot run through the "
                    "simulated cost model");
    sim_runner_ = std::make_unique<SimulatedRunner>(target, config.n_layers, clock);
    target = sim_runner_.get();
  }
  const size_t inflight = std::max<size_t>(options.max_inflight, 1);
  switch (kind) {
    case SchedulerKind::kCarousel:
      scheduler_ = std::make_unique<CarouselScheduler>(target, inflight, options.compute_threads,
                                                       options.carousel_linger_ms, clock);
      break;
    case SchedulerKind::kSerial: {
      Runner* runner = calibrator_ != nullptr ? static_cast<Runner*>(calibrator_.get())
                                              : static_cast<Runner*>(target);
      scheduler_ = std::make_unique<SerialScheduler>(runner, clock);
      break;
    }
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
