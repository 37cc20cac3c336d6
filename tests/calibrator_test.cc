#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/calibrator.h"
#include "src/core/online_calibrator.h"
#include "src/core/pruner.h"
#include "src/data/metrics.h"
#include "src/runtime/hf_runner.h"
#include "tests/test_util.h"

namespace prism {
namespace {

class CalibratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestModel();
    ckpt_ = TestCheckpoint(config_);
    const SyntheticDataset data(DatasetByName("wikipedia"), config_, 321);
    for (size_t i = 0; i < 4; ++i) {
      sample_.push_back(RerankRequest::FromQuery(data.MakeQuery(i, 12), 3));
    }
  }

  ModelConfig config_;
  std::string ckpt_;
  std::vector<RerankRequest> sample_;
};

TEST_F(CalibratorTest, MeetsPrecisionTarget) {
  MemoryTracker tracker;
  PrismOptions popts;
  popts.device = FastDevice();
  PrismEngine engine(config_, ckpt_, popts, &tracker);

  const double target_precision = 0.9;
  const CalibrationResult result = CalibrateThreshold(&engine, sample_, target_precision);
  EXPECT_GE(result.achieved_precision, target_precision);
  EXPECT_GT(result.evaluations, 0);
  // The engine is left configured with the calibrated threshold.
  EXPECT_FLOAT_EQ(engine.dispersion_threshold(), result.threshold);

  // Re-measure independently, against the HF baseline: the calibrated
  // engine meets the target.
  HfRunnerOptions hopts;
  hopts.device = FastDevice();
  HfRunner reference(config_, ckpt_, hopts, &tracker);
  double precision = 0.0;
  for (const RerankRequest& request : sample_) {
    const RerankResult ref = reference.Rerank(request);
    const RerankResult got = engine.Rerank(request);
    precision += TopKOverlap(got.topk, ref.topk, request.k);
  }
  precision /= static_cast<double>(sample_.size());
  EXPECT_GE(precision, target_precision);
}

TEST_F(CalibratorTest, LooseTargetPicksAggressiveThreshold) {
  MemoryTracker tracker;
  PrismOptions popts;
  popts.device = FastDevice();
  PrismEngine engine(config_, ckpt_, popts, &tracker);

  // A target of 0 is met anywhere, so the search stops at the aggressive end.
  const CalibrationResult result = CalibrateThreshold(&engine, sample_, 0.0);
  EXPECT_FLOAT_EQ(result.threshold, kMinDispersionThreshold);
}

TEST_F(CalibratorTest, TighterTargetGivesHigherThreshold) {
  MemoryTracker tracker;
  PrismOptions popts;
  popts.device = FastDevice();
  PrismEngine engine(config_, ckpt_, popts, &tracker);

  const float loose_threshold = CalibrateThreshold(&engine, sample_, 0.5).threshold;
  const float tight_threshold = CalibrateThreshold(&engine, sample_, 0.999).threshold;
  EXPECT_LE(loose_threshold, tight_threshold);
}

TEST_F(CalibratorTest, IdleCyclesMeasureAgainstHfGroundTruth) {
  // Each idle cycle's agreement is the mean top-K overlap of the logged
  // results with the HF baseline's, and the threshold takes the nudge that
  // agreement calls for: x1.30 below target, x0.90 at or above it. On this
  // sample 0.05 misses one of the 12 top-3 slots and 0.1 none, so the
  // cycles nudge both ways.
  const SyntheticDataset data(DatasetByName("beir-fiqa"), config_, 321);
  MemoryTracker tracker;
  PrismOptions popts;
  popts.device = FastDevice();
  popts.dispersion_threshold = 0.05f;
  PrismEngine engine(config_, ckpt_, popts, &tracker);
  HfRunnerOptions hopts;
  hopts.device = FastDevice();
  HfRunner reference(config_, ckpt_, hopts, &tracker);
  OnlineCalibratorOptions options;
  options.target_precision = 0.95;
  options.sample_every = 1;
  OnlineCalibrator calibrator(&engine, options);
  std::vector<float> nudges;
  for (int cycle = 0; cycle < 5; ++cycle) {
    double expected = 0.0;
    for (size_t i = 0; i < 4; ++i) {
      const RerankRequest request = RerankRequest::FromQuery(data.MakeQuery(i, 20), 3);
      const RerankResult served = engine.Rerank(request);
      calibrator.Observe(request, served);
      expected += TopKOverlap(served.topk, reference.Rerank(request).topk, request.k);
    }
    expected /= 4.0;
    const float before = engine.dispersion_threshold();
    EXPECT_EQ(calibrator.RunIdleCycle(), expected) << "cycle " << cycle;
    nudges.push_back(expected < options.target_precision ? 1.30f : 0.90f);
    EXPECT_EQ(engine.dispersion_threshold(), before * nudges.back()) << "cycle " << cycle;
  }
  EXPECT_NE(std::count(nudges.begin(), nudges.end(), 1.30f), 0);
  EXPECT_NE(std::count(nudges.begin(), nudges.end(), 0.90f), 0);
}

}  // namespace
}  // namespace prism
