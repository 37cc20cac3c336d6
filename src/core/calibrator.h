// Automatic dispersion-threshold calibration (paper §4.1).
//
// The paper's system samples live requests, re-executes them without pruning
// when the device is idle to obtain ground truth, and nudges the dispersion
// threshold until the measured precision meets the user's target. This
// offline equivalent bisects for the lowest threshold whose top-K overlap
// with full inference reaches the target across a calibration sample —
// "the lowest possible value that meets the constraint, thereby maximizing
// performance under the given requirement." The bisection assumes agreement
// rises monotonically with the threshold; where it does not, it can settle
// above a lower threshold that also meets the target.
#ifndef PRISM_SRC_CORE_CALIBRATOR_H_
#define PRISM_SRC_CORE_CALIBRATOR_H_

#include <vector>

#include "src/core/engine.h"

namespace prism {

struct CalibrationResult {
  float threshold = 0.0f;
  double achieved_precision = 0.0;
  int evaluations = 0;
};

// Calibrates `engine`'s threshold against its own full inference
// (RerankUnpruned) on the sample requests: the result is the threshold in
// [kMinDispersionThreshold, kMaxDispersionThreshold] the bisection settles
// on whose mean top-K agreement reaches `target_precision`. Leaves the
// engine configured with the chosen threshold.
CalibrationResult CalibrateThreshold(PrismEngine* engine, const std::vector<RerankRequest>& sample,
                                     double target_precision);

}  // namespace prism

#endif  // PRISM_SRC_CORE_CALIBRATOR_H_
