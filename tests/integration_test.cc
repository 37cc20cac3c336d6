// End-to-end checks of the paper's headline claims on the scaled substrate:
// C1 (latency), C2 (memory), C3 (threshold trade-off) at miniature scale.
#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/data/metrics.h"
#include "src/runtime/hf_runner.h"
#include "tests/test_util.h"

namespace prism {
namespace {

// A device whose SSD is slow enough that offloading visibly costs latency at
// test-model scale.
DeviceProfile TestDevice() {
  DeviceProfile device = NvidiaProfile();
  device.ssd.bandwidth_bytes_per_sec = 4.0 * 1024 * 1024;
  device.ssd.latency_micros = 100;
  return device;
}

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestModel();
    ckpt_ = TestCheckpoint(config_);
    request_ = TestRequest(config_, 16, 4);
  }

  ModelConfig config_;
  std::string ckpt_;
  RerankRequest request_;
};

TEST_F(IntegrationTest, C1_PrismFasterThanOffloadAtSamePrecision) {
  MemoryTracker t1;
  MemoryTracker t2;
  HfRunnerOptions oopts;
  oopts.device = TestDevice();
  oopts.offload = true;
  HfRunner offload(config_, ckpt_, oopts, &t1);
  PrismOptions popts;
  popts.device = TestDevice();
  PrismEngine prism(config_, ckpt_, popts, &t2);

  const RerankResult r_off = offload.Rerank(request_);
  const RerankResult r_prism = prism.Rerank(request_);
  EXPECT_LT(r_prism.stats.latency_ms, r_off.stats.latency_ms);
  EXPECT_GE(TopKOverlap(r_prism.topk, r_off.topk, request_.k), 0.75);
}

TEST_F(IntegrationTest, C2_PrismPeakMemoryBelowHf) {
  MemoryTracker t_hf;
  MemoryTracker t_prism;
  {
    HfRunnerOptions hopts;
    hopts.device = FastDevice();
    HfRunner hf(config_, ckpt_, hopts, &t_hf);
    hf.Rerank(request_);
  }
  {
    PrismOptions popts;
    popts.device = FastDevice();
    popts.chunk_candidates = 4;  // Match the baseline's batch-4 activation size.
    PrismEngine prism(config_, ckpt_, popts, &t_prism);
    prism.Rerank(request_);
  }
  // Weights: 2 streamed layers vs. all layers resident. Embedding: 10% cache
  // vs. full table. Peak total strictly below the baseline's.
  EXPECT_LT(t_prism.PeakTotal(), t_hf.PeakTotal());
  // Two streamed layers vs. all n_layers resident (the 4-layer test model
  // puts this exactly at half).
  EXPECT_LE(t_prism.PeakBytes(MemCategory::kWeights),
            t_hf.PeakBytes(MemCategory::kWeights) / 2);
  EXPECT_LT(t_prism.PeakBytes(MemCategory::kEmbedding),
            t_hf.PeakBytes(MemCategory::kEmbedding) / 2);
}

TEST_F(IntegrationTest, C1_PrecisionPreservedAcrossDatasets) {
  MemoryTracker t1;
  MemoryTracker t2;
  HfRunnerOptions hopts;
  hopts.device = FastDevice();
  HfRunner hf(config_, ckpt_, hopts, &t1);
  PrismOptions popts;
  popts.device = FastDevice();
  PrismEngine prism(config_, ckpt_, popts, &t2);

  double hf_precision = 0.0;
  double prism_precision = 0.0;
  int count = 0;
  for (const char* dataset : {"wikipedia", "beir-nq", "lotte"}) {
    const SyntheticDataset data(DatasetByName(dataset), config_, 99);
    for (size_t i = 0; i < 3; ++i) {
      const RerankQuery q = data.MakeQuery(i, 16);
      const RerankRequest request = RerankRequest::FromQuery(q, 4);
      hf_precision += PrecisionAtK(hf.Rerank(request).topk, q.relevant, 4);
      prism_precision += PrecisionAtK(prism.Rerank(request).topk, q.relevant, 4);
      ++count;
    }
  }
  hf_precision /= count;
  prism_precision /= count;
  // Paper claim: precision loss within noise (max loss ~0.008 at paper scale;
  // allow a slightly wider band at test-model scale).
  EXPECT_GE(prism_precision, hf_precision - 0.05);
}

TEST_F(IntegrationTest, C3_ThresholdTradesLatencyForAgreement) {
  MemoryTracker tracker;
  PrismOptions options;
  options.device = FastDevice();
  PrismEngine engine(config_, ckpt_, options, &tracker);

  double low_work = 0.0;
  double high_work = 0.0;
  double low_agreement = 0.0;
  double high_agreement = 0.0;
  const SyntheticDataset data(DatasetByName("wikipedia"), config_, 55);
  for (size_t i = 0; i < 4; ++i) {
    const RerankRequest request = RerankRequest::FromQuery(data.MakeQuery(i, 16), 4);
    const RerankResult ref = engine.RerankUnpruned(request);
    engine.set_dispersion_threshold(0.05f);
    const RerankResult low = engine.Rerank(request);
    low_work += static_cast<double>(low.stats.candidate_layers);
    low_agreement += TopKOverlap(low.topk, ref.topk, 4);
    engine.set_dispersion_threshold(0.45f);
    const RerankResult high = engine.Rerank(request);
    high_work += static_cast<double>(high.stats.candidate_layers);
    high_agreement += TopKOverlap(high.topk, ref.topk, 4);
  }
  EXPECT_LT(low_work, high_work);           // Lower threshold → less compute.
  EXPECT_LE(low_agreement, high_agreement + 1e-9);  // ...and no better agreement.
}

TEST_F(IntegrationTest, OverlappedStreamingHidesIoThatOffloadPays) {
  MemoryTracker t1;
  MemoryTracker t2;
  HfRunnerOptions oopts;
  oopts.device = TestDevice();
  oopts.offload = true;
  HfRunner offload(config_, ckpt_, oopts, &t1);
  PrismOptions popts;
  popts.device = TestDevice();
  PrismEngine prism(config_, ckpt_, popts, &t2);

  const RerankResult r_off = offload.Rerank(request_);
  const RerankResult r_prism = prism.RerankUnpruned(request_);  // Isolate streaming.
  // The offload baseline's I/O is serial (visible stall); PRISM's overlapped
  // streaming hides most of it behind compute.
  EXPECT_LT(r_prism.stats.io_stall_ms, r_off.stats.io_stall_ms * 0.8);
}

}  // namespace
}  // namespace prism
