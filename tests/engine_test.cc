#include <gtest/gtest.h>

#include <cmath>

#include "src/core/engine.h"
#include "src/model/layer.h"
#include "src/data/metrics.h"
#include "src/runtime/hf_runner.h"
#include "tests/test_util.h"

namespace prism {
namespace {

PrismOptions BaseOptions() {
  PrismOptions options;
  options.device = FastDevice();
  return options;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestModel();
    ckpt_ = TestCheckpoint(config_);
    request_ = TestRequest(config_, 12, 3);
  }

  RerankResult RunHf() {
    MemoryTracker tracker;
    HfRunnerOptions opts;
    opts.device = FastDevice();
    HfRunner hf(config_, ckpt_, opts, &tracker);
    return hf.Rerank(request_);
  }

  ModelConfig config_;
  std::string ckpt_;
  RerankRequest request_;
};

TEST_F(EngineTest, NoPruningMatchesHfExactly) {
  // Invariant 4 of DESIGN.md: with pruning disabled, PRISM's scores and top-K
  // equal the baseline bit-for-bit (monolithic forwarding is a pure
  // reorganisation of the same math).
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.pruning = false;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  const RerankResult prism = engine.Rerank(request_);
  const RerankResult hf = RunHf();
  EXPECT_EQ(prism.scores, hf.scores);
  EXPECT_EQ(prism.topk, hf.topk);
}

TEST_F(EngineTest, ChunkSizeInvariance) {
  // Invariant 1: any chunk partition produces bit-identical scores.
  std::vector<float> reference;
  for (size_t chunk : {1u, 2u, 3u, 5u, 12u}) {
    MemoryTracker tracker;
    PrismOptions options = BaseOptions();
    options.pruning = false;
    options.chunk_candidates = chunk;
    PrismEngine engine(config_, ckpt_, options, &tracker);
    const RerankResult result = engine.Rerank(request_);
    if (reference.empty()) {
      reference = result.scores;
    } else {
      EXPECT_EQ(result.scores, reference) << "chunk=" << chunk;
    }
  }
}

TEST_F(EngineTest, StreamingInvariance) {
  // Invariant 2: streamed weights give bit-identical results to resident.
  MemoryTracker t1;
  MemoryTracker t2;
  PrismOptions streaming = BaseOptions();
  streaming.pruning = false;
  PrismOptions resident = BaseOptions();
  resident.pruning = false;
  resident.streaming = false;
  PrismEngine a(config_, ckpt_, streaming, &t1);
  PrismEngine b(config_, ckpt_, resident, &t2);
  EXPECT_EQ(a.Rerank(request_).scores, b.Rerank(request_).scores);
}

TEST_F(EngineTest, HiddenOffloadInvariance) {
  // Invariant 3: spilling hidden states to disk round-trips bit-exactly.
  MemoryTracker t1;
  MemoryTracker t2;
  PrismOptions offload = BaseOptions();
  offload.pruning = false;
  offload.offload_hidden = true;
  offload.chunk_candidates = 3;
  PrismOptions plain = BaseOptions();
  plain.pruning = false;
  plain.chunk_candidates = 3;
  PrismEngine a(config_, ckpt_, offload, &t1);
  PrismEngine b(config_, ckpt_, plain, &t2);
  EXPECT_EQ(a.Rerank(request_).scores, b.Rerank(request_).scores);
}

TEST_F(EngineTest, EmbedCacheInvariance) {
  // Invariant 8: cached embedding lookups are bit-identical to the table.
  MemoryTracker t1;
  MemoryTracker t2;
  PrismOptions cached = BaseOptions();
  cached.pruning = false;
  PrismOptions full = BaseOptions();
  full.pruning = false;
  full.embed_cache = false;
  PrismEngine a(config_, ckpt_, cached, &t1);
  PrismEngine b(config_, ckpt_, full, &t2);
  EXPECT_EQ(a.Rerank(request_).scores, b.Rerank(request_).scores);
  EXPECT_GE(a.Rerank(request_).stats.embed_cache_hit_rate, 0.0);
}

TEST_F(EngineTest, PruningReducesWorkAndPreservesTopK) {
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.dispersion_threshold = 0.25f;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  const RerankResult prism = engine.Rerank(request_);
  const RerankResult hf = RunHf();
  EXPECT_LT(prism.stats.candidate_layers, hf.stats.candidate_layers);
  EXPECT_GE(TopKOverlap(prism.topk, hf.topk, request_.k), 2.0 / 3.0);
  EXPECT_EQ(prism.topk.size(), request_.k);
}

TEST_F(EngineTest, KLargerThanCandidatesReturnsAll) {
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  PrismEngine engine(config_, ckpt_, options, &tracker);
  RerankRequest request = request_;
  request.k = 50;
  const RerankResult result = engine.Rerank(request);
  EXPECT_EQ(result.topk.size(), request_.docs.size());
}

TEST_F(EngineTest, KEqualsOneWorks) {
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.dispersion_threshold = 0.2f;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  RerankRequest request = request_;
  request.k = 1;
  const RerankResult result = engine.Rerank(request);
  EXPECT_EQ(result.topk.size(), 1u);
}

TEST_F(EngineTest, TraceModeRecordsEveryLayer) {
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.trace = true;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  engine.Rerank(request_);
  const auto& trace = engine.last_trace();
  ASSERT_EQ(trace.size(), config_.n_layers);
  for (size_t layer = 0; layer < trace.size(); ++layer) {
    EXPECT_EQ(trace[layer].layer, layer);
    EXPECT_EQ(trace[layer].active, request_.docs.size());
    EXPECT_EQ(trace[layer].scores.size(), request_.docs.size());
    for (float s : trace[layer].scores) {
      EXPECT_TRUE(std::isfinite(s));
    }
  }
  // Invariant 7: γ at the final layer is exactly 1, cluster-γ ≥ γ everywhere.
  const auto& final_scores = trace.back().scores;
  for (const auto& entry : trace) {
    const double gamma = GoodmanKruskalGamma(entry.scores, final_scores);
    const double cgamma = ClusterGamma(entry.scores, final_scores, entry.clusters);
    EXPECT_GE(cgamma, gamma - 1e-9);
  }
  EXPECT_DOUBLE_EQ(GoodmanKruskalGamma(final_scores, final_scores), 1.0);
}

TEST_F(EngineTest, StreamingKeepsAtMostTwoLayersResident) {
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.pruning = false;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  engine.Rerank(request_);
  EXPECT_LE(tracker.PeakBytes(MemCategory::kWeights),
            static_cast<int64_t>(2 * LayerBlobBytes(config_, Precision::kFp32)));
}

TEST_F(EngineTest, EmbedCacheBoundsEmbeddingMemory) {
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.embed_cache_fraction = 0.10;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  engine.Rerank(request_);
  // kEmbedding also holds the engine's [max_seq, hidden] position table.
  const auto position_table = static_cast<int64_t>(config_.max_seq * config_.hidden * sizeof(float));
  EXPECT_LE(tracker.PeakBytes(MemCategory::kEmbedding) - position_table,
            static_cast<int64_t>(config_.EmbeddingBlobBytes() / 9));
}

TEST_F(EngineTest, PlanChunkCandidatesRespectsBudget) {
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.device.activation_budget_bytes = LayerScratch::BytesFor(config_, 4 * 16, 16, 1);
  PrismEngine engine(config_, ckpt_, options, &tracker);
  const size_t c = engine.PlanChunkCandidates(20, 16);
  EXPECT_GE(c, 2u);
  EXPECT_LE(LayerScratch::BytesFor(config_, c * 16, 16, 1),
            options.device.activation_budget_bytes + LayerScratch::BytesFor(config_, 16, 16, 1));
}

TEST_F(EngineTest, PlanChunkCandidatesDegenerateCounts) {
  // A budget too small for even one candidate: the planner still returns a
  // usable chunk size, clamped to the candidate count for tiny requests.
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.device.activation_budget_bytes = 1;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  EXPECT_EQ(engine.PlanChunkCandidates(0, 16), 1u);  // No candidates: nothing to split.
  EXPECT_EQ(engine.PlanChunkCandidates(1, 16), 1u);  // Floor is min(2, n).
}

TEST_F(EngineTest, PlanChunkCandidatesFloorsAtTwoWhenOverBudget) {
  // seq_len so large a single candidate's scratch exceeds the budget: the
  // documented floor of 2 still applies (a 1-candidate chunk would leave no
  // compute window to overlap a layer load).
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.device.activation_budget_bytes = 1;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  const size_t c = engine.PlanChunkCandidates(20, config_.max_seq);
  EXPECT_EQ(c, 2u);
  EXPECT_GT(LayerScratch::BytesFor(config_, config_.max_seq, config_.max_seq, 1),
            options.device.activation_budget_bytes);
}

TEST_F(EngineTest, PlanChunkCandidatesExplicitAndUnchunked) {
  MemoryTracker tracker;
  PrismOptions explicit_options = BaseOptions();
  explicit_options.chunk_candidates = 5;
  PrismEngine explicit_engine(config_, ckpt_, explicit_options, &tracker);
  EXPECT_EQ(explicit_engine.PlanChunkCandidates(20, 16), 5u);
  EXPECT_EQ(explicit_engine.PlanChunkCandidates(3, 16), 3u);  // Clamped to n.

  MemoryTracker tracker2;
  PrismOptions unchunked = BaseOptions();
  unchunked.chunked = false;
  PrismEngine unchunked_engine(config_, ckpt_, unchunked, &tracker2);
  EXPECT_EQ(unchunked_engine.PlanChunkCandidates(20, 16), 20u);  // One monolithic chunk.
}

TEST_F(EngineTest, LowThresholdTerminatesEarly) {
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.dispersion_threshold = 0.05f;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  const RerankResult result = engine.Rerank(request_);
  EXPECT_LT(result.stats.candidate_layers,
            static_cast<int64_t>(request_.docs.size() * config_.n_layers));
}

// bytes_streamed is the bytes of the layers the request consumed. A request
// pruned early is never charged for a layer the prefetcher read past its
// last one, on any run, and Rerank and a carousel pass agree.
TEST_F(EngineTest, BytesStreamedCountsConsumedLayersOnly) {
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.dispersion_threshold = 0.05f;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  const RerankRequest request = TestRequest(config_, 6, 3, /*query_index=*/1);
  const auto layer_bytes = static_cast<int64_t>(LayerBlobBytes(config_, Precision::kFp32));

  const RerankResult first = engine.Rerank(request);
  ASSERT_TRUE(first.status.ok());
  ASSERT_LT(first.stats.layers_until_done, config_.n_layers) << "request must prune early";
  const int64_t consumed = static_cast<int64_t>(first.stats.layers_until_done) * layer_bytes;
  for (int run = 0; run < 20; ++run) {
    const RerankResult result = engine.Rerank(request);
    EXPECT_EQ(result.stats.layers_until_done, first.stats.layers_until_done) << "run " << run;
    EXPECT_EQ(result.stats.bytes_streamed, consumed) << "run " << run;
  }

  std::unique_ptr<CarouselPass> pass = engine.BeginCarousel();
  const RerankRequest* boarding[] = {&request};
  std::unique_ptr<CarouselTicket> ticket = std::move(pass->AdmitBatch(boarding, nullptr)[0]);
  for (size_t layer = 0; !ticket->done(); ++layer) {
    CarouselTicket* group[] = {ticket.get()};
    pass->Step(layer, group, /*compute_pool=*/nullptr);
  }
  const RerankResult carousel = ticket->TakeResult();
  EXPECT_EQ(carousel.stats.layers_until_done, first.stats.layers_until_done);
  EXPECT_EQ(carousel.stats.bytes_streamed, consumed);
}

TEST_F(EngineTest, ExactRankModeMatchesFullTopKOrder) {
  // Discussion §7: prune_winners=false keeps contenders to the final layer,
  // so the top-K *order* matches full inference.
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.prune_winners = false;
  options.dispersion_threshold = 0.2f;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  const RerankResult prism = engine.Rerank(request_);
  const RerankResult hf = RunHf();
  EXPECT_EQ(prism.topk, hf.topk);
}


TEST(EncoderEngineTest, EncoderModelEndToEnd) {
  // The BGE-M3-style encoder path (bidirectional attention, CLS pooling,
  // LayerNorm, GELU FFN) through the full engine with all techniques on.
  const ModelConfig config = TestModel(ModelArch::kEncoderOnly);
  const std::string ckpt = TestCheckpoint(config);
  const RerankRequest request = TestRequest(config, 12, 3);
  MemoryTracker t1;
  MemoryTracker t2;
  PrismOptions no_prune;
  no_prune.device = FastDevice();
  no_prune.pruning = false;
  PrismEngine reference(config, ckpt, no_prune, &t1);
  PrismOptions pruned;
  pruned.device = FastDevice();
  pruned.dispersion_threshold = 0.25f;
  PrismEngine engine(config, ckpt, pruned, &t2);
  const RerankResult full = reference.Rerank(request);
  const RerankResult fast = engine.Rerank(request);
  EXPECT_LE(fast.stats.candidate_layers, full.stats.candidate_layers);
  EXPECT_GE(TopKOverlap(fast.topk, full.topk, request.k), 2.0 / 3.0);
}

// Threshold monotonicity (invariant 6) across several requests.
class ThresholdSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ThresholdSweepTest, WorkIsMonotoneInThreshold) {
  const ModelConfig config = TestModel();
  const std::string ckpt = TestCheckpoint(config);
  const RerankRequest request = TestRequest(config, 14, 4, GetParam());
  int64_t prev_work = 0;
  for (float threshold : {0.05f, 0.25f, 0.6f, 5.0f}) {
    MemoryTracker tracker;
    PrismOptions options = BaseOptions();
    options.dispersion_threshold = threshold;
    PrismEngine engine(config, ckpt, options, &tracker);
    const int64_t work = engine.Rerank(request).stats.candidate_layers;
    EXPECT_GE(work, prev_work) << "threshold " << threshold;
    prev_work = work;
  }
  // At an unreachable threshold, no pruning → full work.
  EXPECT_EQ(prev_work, static_cast<int64_t>(14 * config.n_layers));
}

INSTANTIATE_TEST_SUITE_P(Queries, ThresholdSweepTest, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace prism
