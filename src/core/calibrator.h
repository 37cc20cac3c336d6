// Automatic dispersion-threshold calibration (paper §4.1).
//
// The paper's system samples live requests, re-executes them without pruning
// when the device is idle to obtain ground truth, and nudges the dispersion
// threshold until the measured precision meets the user's target. This
// offline equivalent binary-searches the lowest threshold whose top-K overlap
// with full inference reaches the target across a calibration sample —
// "the lowest possible value that meets the constraint, thereby maximizing
// performance under the given requirement."
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

// Calibrates `engine`'s threshold against `reference` (an un-pruned runner —
// typically an HfRunner or a PrismEngine with pruning off) on the sample
// requests: the result is the lowest threshold in [kMinDispersionThreshold,
// kMaxDispersionThreshold] the search finds whose mean top-K agreement with
// full inference reaches `target_precision`. Leaves the engine configured
// with the chosen threshold.
CalibrationResult CalibrateThreshold(PrismEngine* engine, Runner* reference,
                                     const std::vector<RerankRequest>& sample,
                                     double target_precision);

}  // namespace prism

#endif  // PRISM_SRC_CORE_CALIBRATOR_H_
