// Online dispersion-threshold calibration (paper §4.1, second half).
//
// "We sample requests at a frequency and log their top-K results. When the
//  device is idle, we re-execute full inference (without pruning) to obtain
//  the ground truth. We then compute the precision of the sampled requests
//  against the ground truth. If the precision falls below the target
//  precision, we raise the dispersion threshold for precision; otherwise, we
//  lower it for performance."
//
// OnlineCalibrator wraps a PrismEngine: every `sample_every`-th request is
// logged together with PRISM's top-K; RunIdleCycle() (invoked whenever the
// host application is idle) replays the logged requests through a
// full-inference reference, measures agreement, and nudges the engine's
// threshold multiplicatively in the indicated direction. The threshold write
// is safe against in-flight requests (the engine stores it atomically), and
// the sample log is mutex-guarded so RunIdleCycle may overlap a serving
// thread; serving itself stays one-request-at-a-time (RerankService's
// SerialScheduler).
#ifndef PRISM_SRC_CORE_ONLINE_CALIBRATOR_H_
#define PRISM_SRC_CORE_ONLINE_CALIBRATOR_H_

#include <deque>
#include <memory>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/core/engine.h"

namespace prism {

struct OnlineCalibratorOptions {
  double target_precision = 0.95;   // Top-K agreement with full inference.
  size_t sample_every = 4;          // Log every Nth request.
  size_t max_samples = 16;          // Bounded log (oldest evicted).
  float raise_factor = 1.30f;       // Threshold multiplier when below target.
  float lower_factor = 0.90f;       // Threshold multiplier when above target.
  float min_threshold = 0.02f;
  float max_threshold = 1.5f;
};

class OnlineCalibrator : public Runner {
 public:
  // `engine` serves traffic; `reference` provides ground truth at idle time
  // (RerankService uses the resident HfRunner on the same checkpoint).
  // Neither is owned.
  OnlineCalibrator(PrismEngine* engine, Runner* reference, OnlineCalibratorOptions options);

  // Serves the request through the engine, sampling per options.
  RerankResult Rerank(const RerankRequest& request) override;
  std::string name() const override { return "PRISM (online-calibrated)"; }

  // Processes up to `budget` logged samples against full inference and
  // adjusts the threshold. Returns the measured agreement (NaN if the log
  // was empty).
  double RunIdleCycle(size_t budget = SIZE_MAX);

  float current_threshold() const { return engine_->dispersion_threshold(); }
  size_t pending_samples() const;
  size_t requests_served() const;

 private:
  struct Sample {
    RerankRequest request;
    std::vector<size_t> topk;
  };

  PrismEngine* engine_;
  Runner* reference_;
  OnlineCalibratorOptions options_;
  mutable Mutex mu_;
  std::deque<Sample> log_ PRISM_GUARDED_BY(mu_);
  size_t served_ PRISM_GUARDED_BY(mu_) = 0;
};

}  // namespace prism

#endif  // PRISM_SRC_CORE_ONLINE_CALIBRATOR_H_
