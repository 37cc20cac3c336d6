#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "src/common/timer.h"
#include "src/core/engine.h"
#include "src/model/layer.h"
#include "src/data/metrics.h"
#include "src/runtime/hf_runner.h"
#include "src/storage/blob_file.h"
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

  ModelConfig config_;
  std::string ckpt_;
  RerankRequest request_;
};

TEST_F(EngineTest, NoPruningMatchesHfExactly) {
  // Invariant 4 (docs/ARCHITECTURE.md, "Synthetic weights and planted
  // relevance"): with pruning off, PRISM's scores and top-K equal the
  // baseline bit-for-bit at every tier (monolithic forwarding is a pure
  // reorganisation of the same math), n <= k included. Off for the engine,
  // or for one request of a pruning engine: RerankUnpruned, the calibrators'
  // ground truth, which leaves the live threshold and later requests alone.
  const std::vector<RerankRequest> requests = {request_, TestRequest(config_, 3, 5, 1)};
  for (const Precision precision : kAllPrecisions) {
    SCOPED_TRACE(PrecisionName(precision));
    const std::string ckpt = TestCheckpoint(config_, precision);
    MemoryTracker tracker;
    PrismOptions options = BaseOptions();
    options.precision = precision;
    options.dispersion_threshold = 0.05f;
    PrismEngine engine(config_, ckpt, options, &tracker);
    PrismEngine fresh(config_, ckpt, options, &tracker);
    options.pruning = false;
    PrismEngine unpruned(config_, ckpt, options, &tracker);
    HfRunnerOptions hf_options;
    hf_options.device = FastDevice();
    hf_options.precision = precision;
    HfRunner hf(config_, ckpt, hf_options, &tracker);
    for (const RerankRequest& request : requests) {
      const RerankResult truth = hf.Rerank(request);
      for (const RerankResult& full : {engine.RerankUnpruned(request), unpruned.Rerank(request)}) {
        EXPECT_EQ(full.scores, truth.scores);
        EXPECT_EQ(full.topk, truth.topk);
      }
    }
    EXPECT_EQ(engine.dispersion_threshold(), 0.05f);
    for (const RerankRequest& request : requests) {
      const RerankResult later = engine.Rerank(request);
      const RerankResult expected = fresh.Rerank(request);
      EXPECT_EQ(later.topk, expected.topk);
      ASSERT_EQ(later.scores.size(), expected.scores.size());
      EXPECT_EQ(std::memcmp(later.scores.data(), expected.scores.data(),
                            later.scores.size() * sizeof(float)),
                0);  // Bitwise: a pruned candidate's score is NaN.
    }
  }
}

TEST_F(EngineTest, ChunkSizeInvariance) {
  // Invariant 1: any chunk partition produces bit-identical scores.
  std::vector<float> reference;
  for (size_t chunk : {1u, 2u, 3u, 5u, 12u}) {
    MemoryTracker tracker;
    PrismOptions options = BaseOptions();
    options.chunk_candidates = chunk;
    PrismEngine engine(config_, ckpt_, options, &tracker);
    const RerankResult result = engine.RerankUnpruned(request_);
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
  PrismOptions resident = BaseOptions();
  resident.streaming = false;
  PrismEngine a(config_, ckpt_, BaseOptions(), &t1);
  PrismEngine b(config_, ckpt_, resident, &t2);
  EXPECT_EQ(a.RerankUnpruned(request_).scores, b.RerankUnpruned(request_).scores);
}

TEST_F(EngineTest, HiddenOffloadInvariance) {
  // Invariant 3: spilling hidden states to disk round-trips bit-exactly.
  MemoryTracker t1;
  MemoryTracker t2;
  PrismOptions offload = BaseOptions();
  offload.offload_hidden = true;
  offload.chunk_candidates = 3;
  PrismOptions plain = BaseOptions();
  plain.chunk_candidates = 3;
  PrismEngine a(config_, ckpt_, offload, &t1);
  PrismEngine b(config_, ckpt_, plain, &t2);
  EXPECT_EQ(a.RerankUnpruned(request_).scores, b.RerankUnpruned(request_).scores);

  // Consumed chunks hand their extents to later spills: 40 requests use no
  // more spill-file bytes than one.
  const int64_t one_request = a.spill_pool()->bytes_on_disk();
  EXPECT_GT(one_request, 0);
  for (int i = 1; i < 40; ++i) {
    a.RerankUnpruned(request_);
  }
  EXPECT_LE(a.spill_pool()->bytes_on_disk(), one_request);
  EXPECT_EQ(a.spill_pool()->live_entries(), 0u);
}

TEST_F(EngineTest, EmbedCacheInvariance) {
  // Invariant 8: cached embedding lookups are bit-identical to the table.
  MemoryTracker t1;
  MemoryTracker t2;
  PrismOptions full = BaseOptions();
  full.embed_cache = false;
  PrismEngine a(config_, ckpt_, BaseOptions(), &t1);
  PrismEngine b(config_, ckpt_, full, &t2);
  EXPECT_EQ(a.RerankUnpruned(request_).scores, b.RerankUnpruned(request_).scores);
  // The lookups went through the cache.
  const std::optional<EmbeddingCacheStats> stats = a.embed_cache_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->hits + stats->misses, 0);
}

TEST_F(EngineTest, PruningReducesWorkAndPreservesTopK) {
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.dispersion_threshold = 0.25f;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  const RerankResult prism = engine.Rerank(request_);
  const RerankResult full = engine.RerankUnpruned(request_);
  EXPECT_LT(prism.stats.candidate_layers, full.stats.candidate_layers);
  EXPECT_GE(TopKOverlap(prism.topk, full.topk, request_.k), 2.0 / 3.0);
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
  PrismEngine engine(config_, ckpt_, BaseOptions(), &tracker);
  engine.RerankUnpruned(request_);
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

// A Rerank that exits after layer l has consumed l + 1 layers, and its
// look-ahead read of layer l + 1 is cancelled at the next 64 KiB chunk: the
// call returns in about l + 1 layer reads plus one chunk, not l + 2 reads.
// On a 1 MiB/s device a 0.6B layer read is about 382 ms and a chunk 62.5 ms;
// the bound sits halfway between the two outcomes, which leaves room for the
// last layer's compute on a slow (sanitizer) build.
TEST_F(EngineTest, SerialEarlyExitDoesNotPayForAnUnreadLayer) {
  const ModelConfig config = Qwen3Reranker0_6B();
  const std::string ckpt = TestCheckpoint(config);
  constexpr double kBandwidth = 1.0 * 1024 * 1024;
  constexpr int64_t kLatencyMicros = 50;
  PrismOptions options;
  options.device = SlowSsdDevice(kBandwidth, kLatencyMicros);
  options.dispersion_threshold = 0.2f;
  MemoryTracker tracker;
  PrismEngine engine(config, ckpt, options, &tracker);
  const RerankRequest request = TestRequest(config, 6, 3);

  auto reader = BlobFileReader::Open(ckpt, FastDevice().ssd);
  ASSERT_TRUE(reader.ok());
  const auto read_micros = [&](size_t layer) {
    return static_cast<double>(kLatencyMicros) +
           static_cast<double>(reader.value()->BlobStoredSize(LayerBlobIndex(layer))) /
               kBandwidth * 1e6;
  };
  const double chunk_micros = kLatencyMicros + 64.0 * 1024 / kBandwidth * 1e6;

  for (int run = 0; run < 2; ++run) {
    const WallTimer timer;
    const RerankResult result = engine.Rerank(request);
    const double layers_micros = static_cast<double>(timer.ElapsedMicros()) -
                                 result.stats.embed_ms * 1000.0;
    ASSERT_TRUE(result.status.ok());
    const size_t consumed = result.stats.layers_until_done;
    ASSERT_LT(consumed, config.n_layers) << "request must exit early";
    double reads_micros = 0;
    for (size_t layer = 0; layer < consumed; ++layer) {
      reads_micros += read_micros(layer);
    }
    const double unread_micros = read_micros(consumed);
    EXPECT_LT(layers_micros, reads_micros + (chunk_micros + unread_micros) / 2)
        << "run " << run << ": " << consumed << " layers read";
  }
}

TEST_F(EngineTest, ExactRankModeMatchesFullTopKOrder) {
  // Discussion §7: prune_winners=false keeps contenders to the final layer,
  // so the top-K *order* matches full inference.
  MemoryTracker tracker;
  PrismOptions options = BaseOptions();
  options.prune_winners = false;
  options.dispersion_threshold = 0.2f;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  EXPECT_EQ(engine.Rerank(request_).topk, engine.RerankUnpruned(request_).topk);
}


TEST(EncoderEngineTest, EncoderModelEndToEnd) {
  // The BGE-M3-style encoder path (bidirectional attention, CLS pooling,
  // LayerNorm, GELU FFN) through the full engine with all techniques on.
  const ModelConfig config = TestModel(ModelArch::kEncoderOnly);
  const std::string ckpt = TestCheckpoint(config);
  const RerankRequest request = TestRequest(config, 12, 3);
  MemoryTracker tracker;
  PrismOptions pruned;
  pruned.device = FastDevice();
  pruned.dispersion_threshold = 0.25f;
  PrismEngine engine(config, ckpt, pruned, &tracker);
  const RerankResult full = engine.RerankUnpruned(request);
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
