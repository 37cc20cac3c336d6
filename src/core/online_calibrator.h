// Online dispersion-threshold calibration (paper §4.1, second half).
//
// "We sample requests at a frequency and log their top-K results. When the
//  device is idle, we re-execute full inference (without pruning) to obtain
//  the ground truth. We then compute the precision of the sampled requests
//  against the ground truth. If the precision falls below the target
//  precision, we raise the dispersion threshold for precision; otherwise, we
//  lower it for performance."
//
// OnlineCalibrator sits beside whatever scheduler serves a PrismEngine:
// RerankService hands it every (request, result) pair once the request has
// been served, and every `sample_every`-th served request is logged together
// with PRISM's top-K. RunIdleCycle() (invoked whenever the host application
// is idle) replays the logged requests through the engine's full inference
// (RerankUnpruned), measures agreement, and nudges the engine's threshold
// multiplicatively in the indicated direction, within
// [kMinDispersionThreshold, kMaxDispersionThreshold]. The threshold write is safe against in-flight
// requests: the engine stores it atomically, and a carousel ticket reads it
// once, at admission, so no request mixes two thresholds. The sample log is
// mutex-guarded, so Observe may run on any number of serving threads and
// RunIdleCycle may overlap them.
#ifndef PRISM_SRC_CORE_ONLINE_CALIBRATOR_H_
#define PRISM_SRC_CORE_ONLINE_CALIBRATOR_H_

#include <deque>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/core/engine.h"

namespace prism {

struct OnlineCalibratorOptions {
  double target_precision = 0.95;   // Top-K agreement with full inference.
  size_t sample_every = 4;          // Log every Nth served request.
  size_t max_samples = 16;          // Bounded log (oldest evicted).
};

class OnlineCalibrator {
 public:
  // `engine` serves traffic and provides ground truth at idle time. Not owned.
  OnlineCalibrator(PrismEngine* engine, OnlineCalibratorOptions options);

  // Offers one answered request to the sample log. Only served results
  // (status ok) count and can be logged: a shed or failed request carries no
  // top-K, and scoring it against ground truth would read as 0 agreement.
  // Thread-safe.
  void Observe(const RerankRequest& request, const RerankResult& result);

  // Processes up to `budget` logged samples against full inference and
  // adjusts the threshold. Returns the measured agreement (NaN if the log
  // was empty).
  double RunIdleCycle(size_t budget = SIZE_MAX);

  float current_threshold() const { return engine_->dispersion_threshold(); }
  size_t pending_samples() const;
  size_t requests_served() const;  // Served results observed so far.

 private:
  struct Sample {
    RerankRequest request;
    std::vector<size_t> topk;
  };

  PrismEngine* engine_;
  OnlineCalibratorOptions options_;
  mutable Mutex mu_;
  std::deque<Sample> log_ PRISM_GUARDED_BY(mu_);
  size_t served_ PRISM_GUARDED_BY(mu_) = 0;
};

}  // namespace prism

#endif  // PRISM_SRC_CORE_ONLINE_CALIBRATOR_H_
