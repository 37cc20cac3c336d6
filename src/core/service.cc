#include "src/core/service.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/percentile.h"
#include "src/common/rng.h"

namespace prism {

void ServiceStats::Observe(const RerankRequest& request, const RerankResult& result,
                           double observed_ms) {
  ++requests;
  if (!result.status.ok()) {
    if (result.status.code() == StatusCode::kDeadlineExceeded) {
      ++shed;
    } else {
      ++errors;
    }
    // A shed or failed request never ran, so its ~0 ms latency must not
    // enter the samples, mean, or max: feeding it in would *improve* p50/p99
    // exactly when overload should degrade them. It is already counted in
    // shed/errors above; any bytes a failing request did stream are still
    // real device traffic.
    bytes_streamed += result.stats.bytes_streamed;
    return;
  }
  total_latency_ms += observed_ms;
  max_latency_ms = std::max(max_latency_ms, observed_ms);
  total_candidate_layers += result.stats.candidate_layers;
  total_candidates += static_cast<int64_t>(request.docs.size());
  bytes_streamed += result.stats.bytes_streamed;
  // Reservoir sampling (algorithm R): after n observations every one of
  // them had an equal latency_capacity/n chance of being retained, so the
  // percentiles describe the whole run, not its tail. The replacement index
  // comes from a seeded SplitMix64 stream: the retained set is a pure
  // function of the observation sequence.
  const size_t capacity = std::max<size_t>(latency_capacity, 1);
  if (latency_samples.size() < capacity) {
    latency_samples.push_back(observed_ms);
  } else {
    const size_t j = static_cast<size_t>(SplitMix64(reservoir_state) %
                                         static_cast<uint64_t>(latency_observed + 1));
    if (j < capacity) {
      latency_samples[j] = observed_ms;
    }
  }
  ++latency_observed;
}

namespace {

// Deterministically keeps `keep` of the vector's samples: a seeded partial
// Fisher-Yates draws a uniform `keep`-subset into the front, then truncates.
// Order within the kept set is irrelevant (percentiles sort), uniformity is
// not — every sample must survive with equal probability or the subsample
// re-biases the merge it serves.
void SubsampleTo(std::vector<double>* samples, size_t keep, uint64_t seed) {
  if (keep >= samples->size()) {
    return;
  }
  Rng rng(seed);
  for (size_t i = 0; i < keep; ++i) {
    const size_t j = i + static_cast<size_t>(rng.NextBelow(samples->size() - i));
    std::swap((*samples)[i], (*samples)[j]);
  }
  samples->resize(keep);
}

// Merges `other`'s reservoir into (samples, observed) with observed-count
// weighting. Each side's per-sample weight is observed/|samples| (how many
// real observations one retained sample stands for); the lighter side is
// subsampled until both weights match, then the samples concatenate. When
// both sides are exact (weight 1 each — no reservoir overflow), this is a
// plain concatenation, which is itself exact. `state` seeds the subsample
// and advances, so repeated folds stay deterministic.
void MergeLatencyReservoirs(std::vector<double>* samples, size_t observed,
                            std::vector<double> other_samples, size_t other_observed,
                            uint64_t* state) {
  if (other_observed == 0 || other_samples.empty()) {
    return;
  }
  if (observed == 0 || samples->empty()) {
    *samples = std::move(other_samples);
    return;
  }
  const double weight = static_cast<double>(observed) / static_cast<double>(samples->size());
  const double other_weight =
      static_cast<double>(other_observed) / static_cast<double>(other_samples.size());
  const double target = std::max(weight, other_weight);
  const auto keep_for = [target](size_t n_observed) {
    return std::max<size_t>(
        1, static_cast<size_t>(std::llround(static_cast<double>(n_observed) / target)));
  };
  if (weight < target) {
    SubsampleTo(samples, keep_for(observed), SplitMix64(*state));
  } else if (other_weight < target) {
    SubsampleTo(&other_samples, keep_for(other_observed), SplitMix64(*state));
  }
  samples->insert(samples->end(), other_samples.begin(), other_samples.end());
}

}  // namespace

void ServiceStats::Merge(const ServiceStats& other) {
  requests += other.requests;
  shed += other.shed;
  errors += other.errors;
  total_latency_ms += other.total_latency_ms;
  max_latency_ms = std::max(max_latency_ms, other.max_latency_ms);
  total_candidate_layers += other.total_candidate_layers;
  total_candidates += other.total_candidates;
  bytes_streamed += other.bytes_streamed;
  embed_hits += other.embed_hits;
  embed_misses += other.embed_misses;
  embed_miss_bytes += other.embed_miss_bytes;
  MergeLatencyReservoirs(&latency_samples, latency_observed, other.latency_samples,
                         other.latency_observed, &reservoir_state);
  latency_observed += other.latency_observed;
}

double ServiceStats::LatencyPercentileMs(double p) const {
  std::vector<double> sorted(latency_samples);
  std::sort(sorted.begin(), sorted.end());
  return PercentileOverSorted(sorted, p);
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
    : config_(config), clock_(ResolveClock(options.clock)) {
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
    sim_runner_ = std::make_unique<SimulatedRunner>(target, options.sim, config.n_layers, clock_);
    target = sim_runner_.get();
  }
  const size_t inflight = std::max<size_t>(options.max_inflight, 1);
  switch (kind) {
    case SchedulerKind::kCarousel:
      scheduler_ = std::make_unique<CarouselScheduler>(target, inflight, options.compute_threads,
                                                       options.carousel_linger_ms, clock_);
      break;
    case SchedulerKind::kSerial: {
      Runner* runner = calibrator_ != nullptr ? static_cast<Runner*>(calibrator_.get())
                                              : static_cast<Runner*>(target);
      scheduler_ = std::make_unique<SerialScheduler>(runner, clock_);
      break;
    }
    case SchedulerKind::kAuto:
      PRISM_CHECK_MSG(false, "kAuto resolved above");
      break;
  }
}

RerankResult RerankService::Rerank(const RerankRequest& request) {
  // Client-observed latency on the service's clock: wall time by default,
  // virtual time under simulation — either way queueing is included.
  const double start_ms = clock_->NowMs();
  // A malformed request fails alone, before any scheduler or engine sees it.
  RerankResult result;
  result.status = ValidateRequest(config_, request);
  if (result.status.ok()) {
    result = scheduler_->Submit(request);
  }
  const double observed_ms = clock_->NowMs() - start_ms;
  {
    MutexLock lock(stats_mu_);
    stats_.Observe(request, result, observed_ms);
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
