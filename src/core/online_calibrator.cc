#include "src/core/online_calibrator.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/data/metrics.h"

namespace prism {

size_t OnlineCalibrator::pending_samples() const {
  MutexLock lock(mu_);
  return log_.size();
}

size_t OnlineCalibrator::requests_served() const {
  MutexLock lock(mu_);
  return served_;
}

OnlineCalibrator::OnlineCalibrator(PrismEngine* engine, Runner* reference,
                                   OnlineCalibratorOptions options)
    : engine_(engine), reference_(reference), options_(options) {
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
    // reference run is slow and serving threads only need the log).
    const RerankResult truth = reference_->Rerank(sample.request);
    agreement += TopKOverlap(sample.topk, truth.topk, sample.request.k);
    ++processed;
  }
  if (processed == 0) {
    return std::nan("");
  }
  agreement /= static_cast<double>(processed);

  float threshold = engine_->dispersion_threshold();
  if (agreement < options_.target_precision) {
    threshold *= options_.raise_factor;  // Precision first.
  } else {
    threshold *= options_.lower_factor;  // Room to prune harder.
  }
  threshold = std::clamp(threshold, options_.min_threshold, options_.max_threshold);
  engine_->set_dispersion_threshold(threshold);
  return agreement;
}

}  // namespace prism
