#include <gtest/gtest.h>

#include "src/core/calibrator.h"
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
  MemoryTracker t1;
  MemoryTracker t2;
  HfRunnerOptions hopts;
  hopts.device = FastDevice();
  HfRunner reference(config_, ckpt_, hopts, &t1);
  PrismOptions popts;
  popts.device = FastDevice();
  PrismEngine engine(config_, ckpt_, popts, &t2);

  const double target_precision = 0.9;
  const CalibrationResult result =
      CalibrateThreshold(&engine, &reference, sample_, target_precision);
  EXPECT_GE(result.achieved_precision, target_precision);
  EXPECT_GT(result.evaluations, 0);
  // The engine is left configured with the calibrated threshold.
  EXPECT_FLOAT_EQ(engine.dispersion_threshold(), result.threshold);

  // Re-measure independently: the calibrated engine meets the target.
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
  MemoryTracker t1;
  MemoryTracker t2;
  HfRunnerOptions hopts;
  hopts.device = FastDevice();
  HfRunner reference(config_, ckpt_, hopts, &t1);
  PrismOptions popts;
  popts.device = FastDevice();
  PrismEngine engine(config_, ckpt_, popts, &t2);

  // A target of 0 is met anywhere, so the search stops at the aggressive end.
  const CalibrationResult result = CalibrateThreshold(&engine, &reference, sample_, 0.0);
  EXPECT_FLOAT_EQ(result.threshold, kMinDispersionThreshold);
}

TEST_F(CalibratorTest, TighterTargetGivesHigherThreshold) {
  MemoryTracker t1;
  MemoryTracker t2;
  HfRunnerOptions hopts;
  hopts.device = FastDevice();
  HfRunner reference(config_, ckpt_, hopts, &t1);
  PrismOptions popts;
  popts.device = FastDevice();
  PrismEngine engine(config_, ckpt_, popts, &t2);

  const float loose_threshold = CalibrateThreshold(&engine, &reference, sample_, 0.5).threshold;
  const float tight_threshold =
      CalibrateThreshold(&engine, &reference, sample_, 0.999).threshold;
  EXPECT_LE(loose_threshold, tight_threshold);
}

}  // namespace
}  // namespace prism
