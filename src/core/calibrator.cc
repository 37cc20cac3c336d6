#include "src/core/calibrator.h"

#include "src/common/check.h"
#include "src/core/pruner.h"
#include "src/data/metrics.h"

namespace prism {

namespace {

// Bisection steps between the threshold bounds.
constexpr int kBisections = 7;

double MeasureAgreement(PrismEngine* engine, const std::vector<RerankRequest>& sample,
                        const std::vector<RerankResult>& references) {
  double total = 0.0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const RerankResult result = engine->Rerank(sample[i]);
    total += TopKOverlap(result.topk, references[i].topk, sample[i].k);
  }
  return total / static_cast<double>(sample.size());
}

}  // namespace

CalibrationResult CalibrateThreshold(PrismEngine* engine, const std::vector<RerankRequest>& sample,
                                     double target_precision) {
  PRISM_CHECK(!sample.empty());
  // Ground truth: full inference on every sampled request (the paper does
  // this re-execution when the device is idle).
  std::vector<RerankResult> references;
  references.reserve(sample.size());
  for (const RerankRequest& request : sample) {
    references.push_back(engine->RerankUnpruned(request));
  }

  CalibrationResult result;
  float lo = kMinDispersionThreshold;  // Aggressive end (may miss the target).
  float hi = kMaxDispersionThreshold;  // Conservative end (assumed to pass).
  double hi_precision = 1.0;

  // If even the aggressive end meets the target, take it outright.
  engine->set_dispersion_threshold(lo);
  double lo_precision = MeasureAgreement(engine, sample, references);
  ++result.evaluations;
  if (lo_precision >= target_precision) {
    result.threshold = lo;
    result.achieved_precision = lo_precision;
    return result;
  }

  for (int i = 0; i < kBisections; ++i) {
    const float mid = 0.5f * (lo + hi);
    engine->set_dispersion_threshold(mid);
    const double precision = MeasureAgreement(engine, sample, references);
    ++result.evaluations;
    if (precision >= target_precision) {
      hi = mid;  // Passing: try to prune more aggressively.
      hi_precision = precision;
    } else {
      lo = mid;  // Failing: back off toward conservative.
    }
  }
  result.threshold = hi;
  result.achieved_precision = hi_precision;
  engine->set_dispersion_threshold(hi);
  return result;
}

}  // namespace prism
