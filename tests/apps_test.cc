#include <gtest/gtest.h>

#include "src/apps/agent_memory.h"
#include "src/apps/corpus.h"
#include "src/apps/file_search.h"
#include "src/apps/lcs.h"
#include "src/apps/rag.h"
#include "src/apps/sim_llm.h"
#include "src/core/engine.h"
#include "src/runtime/hf_runner.h"
#include "tests/test_util.h"

namespace prism {
namespace {

// Fast generator settings so app tests stay quick.
SimLlmConfig FastLlm() {
  SimLlmConfig config;
  config.prefill_tokens_per_sec = 2e6;
  config.decode_tokens_per_sec = 2e5;
  return config;
}

TEST(SimLlmTest, LatencyScalesWithTokens) {
  MemoryTracker tracker;
  SimLlmConfig config;
  config.prefill_tokens_per_sec = 10000.0;
  config.decode_tokens_per_sec = 1000.0;
  SimulatedLlm llm(config, &tracker);
  const SimLlmResult small = llm.Generate(100, 10);
  const SimLlmResult large = llm.Generate(1000, 100);
  EXPECT_GT(large.latency_ms, small.latency_ms * 3);
  EXPECT_LE(small.first_token_ms, small.latency_ms);
}

TEST(CorpusTest, PlantedDocsGetHigherRelevance) {
  const ModelConfig config = TestModel();
  const SearchCorpus corpus(DatasetByName("wikipedia"), config, 4, 3, 40, 11);
  EXPECT_EQ(corpus.docs().size(), 40u + 4u * 3u);
  for (size_t q = 0; q < corpus.queries().size(); ++q) {
    double relevant_mean = 0.0;
    for (size_t doc : corpus.queries()[q].relevant) {
      relevant_mean += corpus.PlantedRelevance(q, doc);
      EXPECT_GT(corpus.Grade(q, doc), 0.0f);
    }
    relevant_mean /= static_cast<double>(corpus.queries()[q].relevant.size());
    double background_mean = 0.0;
    for (size_t doc = 0; doc < 10; ++doc) {
      background_mean += corpus.PlantedRelevance(q, doc);
    }
    background_mean /= 10.0;
    EXPECT_GT(relevant_mean, background_mean + 0.2);
  }
}

TEST(CorpusTest, RequestsAreWellFormed) {
  const ModelConfig config = TestModel();
  const SearchCorpus corpus(DatasetByName("beir-nq"), config, 2, 3, 20, 12);
  const RerankRequest request = corpus.MakeRequest(0, {0, 1, 2, 24}, 2);
  EXPECT_EQ(request.docs.size(), 4u);
  EXPECT_EQ(request.planted_r.size(), 4u);
  EXPECT_EQ(request.k, 2u);
}

class AppsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestModel();
    ckpt_ = TestCheckpoint(config_);
    HfRunnerOptions hopts;
    hopts.device = FastDevice();
    hf_ = std::make_unique<HfRunner>(config_, ckpt_, hopts, &hf_tracker_);
    PrismOptions popts;
    popts.device = FastDevice();
    prism_ = std::make_unique<PrismEngine>(config_, ckpt_, popts, &prism_tracker_);
  }

  ModelConfig config_;
  std::string ckpt_;
  MemoryTracker hf_tracker_;
  MemoryTracker prism_tracker_;
  std::unique_ptr<HfRunner> hf_;
  std::unique_ptr<PrismEngine> prism_;
};

TEST_F(AppsTest, FileSearchFindsPlantedDocs) {
  const SearchCorpus corpus(DatasetByName("wikipedia"), config_, 3, 4, 60, 13);
  const FileSearchApp app(&corpus);
  double precision = 0.0;
  for (size_t q = 0; q < 3; ++q) {
    const FileSearchResult result = app.Search(q, 4, hf_.get());
    EXPECT_EQ(result.top_docs.size(), 4u);
    EXPECT_GE(result.rerank_ms, 0.0);
    precision += result.precision;
  }
  EXPECT_GT(precision / 3.0, 0.5);  // End-to-end: retrieval + rerank find the planted docs.
}

TEST_F(AppsTest, FileSearchPrismMatchesHf) {
  const SearchCorpus corpus(DatasetByName("wikipedia"), config_, 2, 4, 60, 13);
  const FileSearchApp app(&corpus);
  const FileSearchResult a = app.Search(0, 4, hf_.get());
  const FileSearchResult b = app.Search(0, 4, prism_.get());
  EXPECT_NEAR(a.precision, b.precision, 0.26);
}

TEST_F(AppsTest, RagPipelineEndToEnd) {
  const SearchCorpus corpus(DatasetByName("beir-nq"), config_, 3, 5, 60, 14);
  RagOptions options;
  options.k = 5;
  options.llm = FastLlm();
  RagPipeline rag(&corpus, options);
  const RagResult result = rag.Query(0, hf_.get());
  EXPECT_EQ(result.context_docs.size(), 5u);
  EXPECT_GT(result.accuracy, 0.0);
  EXPECT_GT(result.total_ms, 0.0);
  EXPECT_GE(result.total_ms, result.rerank_ms);
}

TEST_F(AppsTest, AgentMemoryFasterWithRerankerThanDisabled) {
  AgentWorkloadProfile profile = VideoWorkload();
  profile.n_tasks = 2;
  profile.steps_per_task = 2;
  profile.env_step_ms = 5.0;
  profile.vlm_prompt_tokens = 3000;  // VLM decisions clearly dominate (~1.2 s each)
  profile.vlm_new_tokens = 6;         // while keeping the test quick.
  AgentMemoryApp app(profile, config_, 15);
  const AgentRunResult disabled = app.Run(nullptr);
  const AgentRunResult with_reranker = app.Run(hf_.get());
  EXPECT_GT(disabled.avg_task_latency_ms, with_reranker.avg_task_latency_ms);
  EXPECT_EQ(disabled.success_rate, 1.0);  // VLM path always succeeds.
  EXPECT_GE(with_reranker.success_rate, 0.5);
}

TEST_F(AppsTest, LcsRerankedBeatsNoReranker) {
  LcsOptions options;
  options.n_segments = 24;
  options.relevant_segments = 4;
  options.k = 5;
  options.llm = FastLlm();
  LcsApp app(options, config_, 16);
  const LcsResult with_reranker = app.Answer(0, hf_.get());
  const LcsResult without = app.Answer(0, nullptr);
  EXPECT_GT(with_reranker.precision, without.precision);
  EXPECT_LT(with_reranker.prompt_tokens, without.prompt_tokens);
}

TEST_F(AppsTest, LcsPrismMatchesHfPrecision) {
  LcsOptions options;
  options.n_segments = 24;
  options.relevant_segments = 4;
  options.k = 5;
  options.llm = FastLlm();
  LcsApp app(options, config_, 17);
  const LcsResult a = app.Answer(1, hf_.get());
  const LcsResult b = app.Answer(1, prism_.get());
  EXPECT_NEAR(a.precision, b.precision, 0.21);
}

}  // namespace
}  // namespace prism
