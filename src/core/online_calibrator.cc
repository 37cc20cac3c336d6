#include "src/core/online_calibrator.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/core/pruner.h"
#include "src/data/metrics.h"

namespace prism {

namespace {

// Threshold multipliers per idle cycle: raise when agreement is below
// target, lower when it meets it.
constexpr float kRaiseFactor = 1.30f;
constexpr float kLowerFactor = 0.90f;

}  // namespace

size_t OnlineCalibrator::pending_samples() const {
  MutexLock lock(mu_);
  return log_.size();
}

size_t OnlineCalibrator::requests_served() const {
  MutexLock lock(mu_);
  return served_;
}

OnlineCalibrator::OnlineCalibrator(PrismEngine* engine, OnlineCalibratorOptions options)
    : engine_(engine), options_(options) {
  PRISM_CHECK_GT(options_.sample_every, 0u);
  PRISM_CHECK_GT(options_.max_samples, 0u);
}

void OnlineCalibrator::Observe(const RerankRequest& request, const RerankResult& result) {
  if (!result.status.ok()) {
    return;
  }
  MutexLock lock(mu_);
  if (served_++ % options_.sample_every == 0) {
    if (log_.size() == options_.max_samples) {
      log_.pop_front();
    }
    log_.push_back(Sample{request, result.topk});
  }
}

double OnlineCalibrator::RunIdleCycle(size_t budget) {
  double agreement = 0.0;
  size_t processed = 0;
  while (processed < budget) {
    Sample sample;
    {
      MutexLock lock(mu_);
      if (log_.empty()) {
        break;
      }
      sample = std::move(log_.front());
      log_.pop_front();
    }
    // Full inference without pruning → ground truth (outside the lock: the
    // replay is slow and serving threads only need the log).
    const RerankResult truth = engine_->RerankUnpruned(sample.request);
    agreement += TopKOverlap(sample.topk, truth.topk, sample.request.k);
    ++processed;
  }
  if (processed == 0) {
    return std::nan("");
  }
  agreement /= static_cast<double>(processed);

  float threshold = engine_->dispersion_threshold();
  if (agreement < options_.target_precision) {
    threshold *= kRaiseFactor;  // Precision first.
  } else {
    threshold *= kLowerFactor;  // Room to prune harder.
  }
  threshold = std::clamp(threshold, kMinDispersionThreshold, kMaxDispersionThreshold);
  engine_->set_dispersion_threshold(threshold);
  return agreement;
}

}  // namespace prism
