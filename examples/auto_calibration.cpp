// Automatic dispersion-threshold calibration (paper §4.1): instead of tuning
// the threshold by hand, specify a minimum precision target and let the
// calibrator find an aggressive threshold that meets it against
// full-inference ground truth, which the engine computes itself by running
// the sample without pruning.
#include <cstdio>

#include "src/core/calibrator.h"
#include "src/core/engine.h"
#include "src/model/synthetic.h"

int main() {
  using namespace prism;

  const ModelConfig model = Qwen3Reranker0_6B();
  DeviceProfile device = NvidiaProfile();
  device.ssd.throttle = false;  // Calibration is offline; skip simulated I/O waits.
  const std::string checkpoint = EnsureCheckpoint(model, 42);

  // Calibration sample: a few queries from the target workload.
  const SyntheticDataset data(DatasetByName("beir-nq"), model, 77);
  std::vector<RerankRequest> sample;
  for (size_t i = 0; i < 3; ++i) {
    sample.push_back(RerankRequest::FromQuery(data.MakeQuery(i, 20), 5));
  }

  PrismOptions prism_options;
  prism_options.device = device;
  PrismEngine engine(model, checkpoint, prism_options);

  for (double target : {0.90, 0.99}) {
    const CalibrationResult result = CalibrateThreshold(&engine, sample, target);
    std::printf("target precision %.2f -> threshold %.3f (achieved %.3f, %d evaluations)\n",
                target, result.threshold, result.achieved_precision, result.evaluations);
  }
  return 0;
}
