// Zoo-wide property sweep: every model architecture in the paper's Table 1,
// shrunk to test scale (layer count / hidden reduced, architecture and ratios
// preserved), must satisfy PRISM's core guarantees end to end.
#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/data/metrics.h"
#include "src/model/layer.h"
#include "tests/test_util.h"

namespace prism {
namespace {

// Miniature version of a zoo config: same architecture and shape ratios, a
// quarter of the layers, tiny dims — fast enough for unit tests.
ModelConfig Miniature(const ModelConfig& full) {
  ModelConfig mini = full;
  mini.name = "mini-" + full.name;
  mini.n_layers = std::max<size_t>(3, full.n_layers / 8);
  mini.hidden = 32;
  mini.ffn = full.arch == ModelArch::kDecoderOnly ? 96 : 128;
  mini.n_heads = 2;
  mini.vocab_size = 512;
  mini.max_seq = 32;
  mini.quant_group = 16;
  return mini;
}

class ZooPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ZooPropertyTest, PrismMatchesFullInferenceShape) {
  const ModelConfig config = Miniature(ModelZoo()[GetParam()]);
  const std::string ckpt = TestCheckpoint(config);
  const RerankRequest request = TestRequest(config, 14, 4);

  MemoryTracker t_prism;
  PrismOptions prism_options;
  prism_options.device = FastDevice();
  prism_options.dispersion_threshold = 0.25f;
  PrismEngine prism(config, ckpt, prism_options, &t_prism);

  const RerankResult r_full = prism.RerankUnpruned(request);
  const RerankResult r_prism = prism.Rerank(request);

  // Work never exceeds full inference; precision stays close.
  EXPECT_LE(r_prism.stats.candidate_layers, r_full.stats.candidate_layers);
  EXPECT_GE(TopKOverlap(r_prism.topk, r_full.topk, request.k), 0.5);

  // Streaming bound: at most two layers resident.
  EXPECT_LE(t_prism.PeakBytes(MemCategory::kWeights),
            static_cast<int64_t>(2 * LayerBlobBytes(config, Precision::kFp32)));

  // Scores are valid probabilities wherever computed.
  for (float s : r_prism.scores) {
    if (!std::isnan(s)) {
      EXPECT_GT(s, 0.0f);
      EXPECT_LT(s, 1.0f);
    }
  }
}

TEST_P(ZooPropertyTest, QuantizedEngineAgreesWithF32) {
  const ModelConfig config = Miniature(ModelZoo()[GetParam()]);
  const std::string f32 = TestCheckpoint(config);
  const std::string q4 = TestCheckpoint(config, Precision::kW4);
  const RerankRequest request = TestRequest(config, 10, 3);

  MemoryTracker t1;
  MemoryTracker t2;
  PrismOptions options;
  options.device = FastDevice();
  PrismEngine a(config, f32, options, &t1);
  PrismOptions qoptions = options;
  qoptions.precision = Precision::kW4;
  PrismEngine b(config, q4, qoptions, &t2);
  const RerankResult ra = a.RerankUnpruned(request);
  const RerankResult rb = b.RerankUnpruned(request);
  for (size_t i = 0; i < ra.scores.size(); ++i) {
    EXPECT_NEAR(ra.scores[i], rb.scores[i], 0.2f) << config.name << " candidate " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooPropertyTest, ::testing::Range<size_t>(0, 5));

}  // namespace
}  // namespace prism
