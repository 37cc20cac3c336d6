#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>

#include "src/common/clock.h"
#include "src/data/metrics.h"
#include "src/runtime/hf_runner.h"
#include "src/runtime/sim_runner.h"
#include "src/storage/ssd.h"
#include "tests/test_util.h"

namespace prism {
namespace {

TEST(DeviceTest, ProfilesExist) {
  EXPECT_EQ(NvidiaProfile().name, "nvidia");
  EXPECT_EQ(AppleProfile().name, "apple");
  EXPECT_GT(AppleProfile().compute_slowdown, NvidiaProfile().compute_slowdown);
  EXPECT_LT(AppleProfile().ssd.bandwidth_bytes_per_sec,
            NvidiaProfile().ssd.bandwidth_bytes_per_sec);
}

TEST(RequestTest, FromQueryCopiesEverything) {
  const ModelConfig config = TestModel();
  const SyntheticDataset data(DatasetByName("lotte"), config, 3);
  const RerankQuery q = data.MakeQuery(0, 7);
  const RerankRequest request = RerankRequest::FromQuery(q, 4);
  EXPECT_EQ(request.query, q.tokens);
  ASSERT_EQ(request.docs.size(), 7u);
  EXPECT_EQ(request.k, 4u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(request.docs[i], q.candidates[i].tokens);
    EXPECT_EQ(request.planted_r[i], q.candidates[i].planted_r);
  }
}

TEST(RequestTest, KeyIsEverythingButAdmission) {
  RerankRequest base;
  base.query = {1, 2, 3};
  base.docs = {{4, 5}, {6}};
  base.planted_r = {0.5f, -1.0f};
  base.k = 2;
  const RequestKey key(base);

  // Admission fields never reach a runner, so they stay out of the key.
  RerankRequest admission = base;
  admission.priority = 3;
  admission.deadline_ms = 40.0;
  EXPECT_EQ(RequestKey(admission), key);
  EXPECT_EQ(RequestKey(admission).Hash(), key.Hash());

  // Any one ranking input makes a different key.
  RerankRequest query = base;
  query.query.push_back(7);
  RerankRequest docs = base;
  docs.docs[1] = {8};
  RerankRequest planted_r = base;
  planted_r.planted_r[0] = 0.25f;
  RerankRequest k = base;
  k.k = 1;
  for (const RerankRequest* other : {&query, &docs, &planted_r, &k}) {
    EXPECT_FALSE(RequestKey(*other) == key);
  }
  // The hash reads the query alone: a shared query shares a hash.
  EXPECT_EQ(RequestKey(planted_r).Hash(), key.Hash());

  // planted_r compares by bit pattern, so a NaN key still equals itself.
  RerankRequest nan = base;
  nan.planted_r[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(RequestKey(nan), RequestKey(nan));
}

// A carousel runner that counts the requests it actually ranks.
class CountingRunner : public CarouselRunner {
 public:
  RerankResult Rerank(const RerankRequest& request) override {
    ++calls_;
    RerankResult result;
    result.topk.push_back(0);
    result.scores.assign(request.docs.size(), 1.0f);
    result.stats.layers_until_done = 1;
    return result;
  }
  std::unique_ptr<CarouselPass> BeginCarousel() override { return nullptr; }
  std::string name() const override { return "counting"; }

  size_t calls() const { return calls_; }

 private:
  size_t calls_ = 0;
};

TEST(SimulatedRunnerTest, MemoKeysByTheWholeRequest) {
  SimClock clock;
  CountingRunner target;
  SimulatedRunner sim(&target, /*n_layers=*/4, &clock);
  RerankRequest a;
  a.query = {1, 2};
  a.docs = {{3}, {4}};
  a.planted_r = {0.0f, 1.0f};
  a.k = 1;

  // Same query, different candidate relevance: a second engine run.
  RerankRequest b = a;
  b.planted_r = {1.0f, 0.0f};
  sim.Rerank(a);
  sim.Rerank(b);
  EXPECT_EQ(target.calls(), 2u);

  // Same request in another admission class: served from the memo.
  RerankRequest urgent = a;
  urgent.priority = 1;
  urgent.deadline_ms = 5.0;
  EXPECT_TRUE(sim.Rerank(urgent).status.ok());
  EXPECT_EQ(target.calls(), 2u);
  // Every pass still charged its virtual cost (8 ms + 2 ms per request).
  EXPECT_DOUBLE_EQ(clock.NowMs(), 30.0);
}

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestModel();
    ckpt_ = TestCheckpoint(config_);
    qckpt_ = TestCheckpoint(config_, Precision::kW4);
    request_ = TestRequest(config_, 10, 3);
  }

  ModelConfig config_;
  std::string ckpt_;
  std::string qckpt_;
  RerankRequest request_;
};

TEST_F(RunnerTest, HfAndOffloadProduceIdenticalScores) {
  MemoryTracker t1;
  MemoryTracker t2;
  HfRunnerOptions hopts;
  hopts.device = FastDevice();
  HfRunner hf(config_, ckpt_, hopts, &t1);
  HfRunnerOptions oopts;
  oopts.device = FastDevice();
  oopts.offload = true;
  HfRunner off(config_, ckpt_, oopts, &t2);
  const RerankResult a = hf.Rerank(request_);
  const RerankResult b = off.Rerank(request_);
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_EQ(a.topk, b.topk);
}

TEST_F(RunnerTest, BatchSizeDoesNotChangeScores) {
  MemoryTracker t1;
  MemoryTracker t2;
  HfRunnerOptions small;
  small.device = FastDevice();
  small.device.hf_batch_size = 2;
  HfRunnerOptions large;
  large.device = FastDevice();
  large.device.hf_batch_size = 10;
  HfRunner a(config_, ckpt_, small, &t1);
  HfRunner b(config_, ckpt_, large, &t2);
  EXPECT_EQ(a.Rerank(request_).scores, b.Rerank(request_).scores);
}

TEST_F(RunnerTest, QuantizedCloseToF32) {
  MemoryTracker t1;
  MemoryTracker t2;
  HfRunnerOptions f32;
  f32.device = FastDevice();
  HfRunnerOptions q4;
  q4.device = FastDevice();
  q4.precision = Precision::kW4;
  HfRunner a(config_, ckpt_, f32, &t1);
  HfRunner b(config_, qckpt_, q4, &t2);
  const RerankResult ra = a.Rerank(request_);
  const RerankResult rb = b.Rerank(request_);
  for (size_t i = 0; i < ra.scores.size(); ++i) {
    EXPECT_NEAR(ra.scores[i], rb.scores[i], 0.15f);
  }
  EXPECT_GE(TopKOverlap(ra.topk, rb.topk, request_.k), 1.0 / 3.0);
}

TEST_F(RunnerTest, HfKeepsAllWeightsResident) {
  MemoryTracker tracker;
  HfRunnerOptions opts;
  opts.device = FastDevice();
  HfRunner hf(config_, ckpt_, opts, &tracker);
  const int64_t expected =
      static_cast<int64_t>(config_.n_layers * LayerBlobBytes(config_, Precision::kFp32));
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights), expected);
  // The full embedding table plus the [max_seq, hidden] position table.
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kEmbedding),
            static_cast<int64_t>(config_.EmbeddingBlobBytes() +
                                 config_.max_seq * config_.hidden * sizeof(float)));
}

TEST_F(RunnerTest, OffloadKeepsAtMostOneLayerResident) {
  MemoryTracker tracker;
  HfRunnerOptions opts;
  opts.device = FastDevice();
  opts.offload = true;
  HfRunner off(config_, ckpt_, opts, &tracker);
  off.Rerank(request_);
  EXPECT_LE(tracker.PeakBytes(MemCategory::kWeights),
            static_cast<int64_t>(LayerBlobBytes(config_, Precision::kFp32)));
  // After the request, no layer weights remain resident.
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights), 0);
}

TEST_F(RunnerTest, OffloadReportsStreamedBytes) {
  MemoryTracker tracker;
  HfRunnerOptions opts;
  opts.device = FastDevice();
  opts.device.hf_batch_size = 5;
  opts.offload = true;
  HfRunner off(config_, ckpt_, opts, &tracker);
  const RerankResult result = off.Rerank(request_);
  // 10 candidates in batches of 5 → every layer loaded twice.
  EXPECT_EQ(result.stats.bytes_streamed,
            static_cast<int64_t>(2 * config_.n_layers * LayerBlobBytes(config_, Precision::kFp32)));
}

TEST_F(RunnerTest, TopKSizeRespectsK) {
  MemoryTracker tracker;
  HfRunnerOptions opts;
  opts.device = FastDevice();
  HfRunner hf(config_, ckpt_, opts, &tracker);
  const RerankResult result = hf.Rerank(request_);
  EXPECT_EQ(result.topk.size(), 3u);
  EXPECT_EQ(result.stats.layers_until_done, config_.n_layers);
  EXPECT_EQ(result.stats.candidate_layers,
            static_cast<int64_t>(10 * config_.n_layers));
}

TEST_F(RunnerTest, MalformedRequestsGetInvalidArgumentInBothModes) {
  for (const bool offload : {false, true}) {
    SCOPED_TRACE(offload ? "offload" : "resident");
    MemoryTracker tracker;
    HfRunnerOptions opts;
    opts.device = FastDevice();
    opts.offload = offload;
    HfRunner hf(config_, ckpt_, opts, &tracker);

    RerankRequest no_k = request_;
    no_k.k = 0;
    RerankRequest short_planted = request_;
    short_planted.planted_r.pop_back();
    RerankRequest out_of_vocab = request_;
    out_of_vocab.docs[3].push_back(static_cast<uint32_t>(config_.vocab_size));
    for (const RerankRequest* bad : {&no_k, &short_planted, &out_of_vocab}) {
      const RerankResult result = hf.Rerank(*bad);
      EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
      EXPECT_TRUE(result.topk.empty());
    }
    // The runner still serves a well-formed request afterwards.
    EXPECT_TRUE(hf.Rerank(request_).status.ok());
  }
}

TEST_F(RunnerTest, OffloadCorruptLayerFailsTheRequestNotTheProcess) {
  // A checkpoint copy with one stored byte of layer 2 flipped: the
  // offloading runner's read of that blob fails its checksum.
  const std::string corrupt = MakeTempDevicePath("hf_corrupt_layer");
  std::filesystem::copy_file(ckpt_, corrupt, std::filesystem::copy_options::overwrite_existing);
  {
    SimulatedSsd ssd(corrupt, FastDevice().ssd);
    // A table entry (40 bytes, after the 16-byte header) opens with the
    // blob's absolute offset.
    int64_t at = 0;
    ASSERT_TRUE(ssd.Read(16 + 40 * static_cast<int64_t>(LayerBlobIndex(2)),
                         {reinterpret_cast<uint8_t*>(&at), sizeof(at)})
                    .ok());
    uint8_t byte = 0;
    ASSERT_TRUE(ssd.Read(at + 100, {&byte, 1}).ok());
    byte ^= 0x10;
    ASSERT_TRUE(ssd.Write(at + 100, {&byte, 1}).ok());
  }
  MemoryTracker tracker;
  HfRunnerOptions opts;
  opts.device = FastDevice();
  opts.offload = true;
  HfRunner off(config_, corrupt, opts, &tracker);
  const RerankResult result = off.Rerank(request_);
  EXPECT_EQ(result.status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(result.topk.empty());
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights), 0);
  std::filesystem::remove(corrupt);
}

TEST_F(RunnerTest, ComputeSlowdownStretchesLatency) {
  MemoryTracker t1;
  MemoryTracker t2;
  HfRunnerOptions fast;
  fast.device = FastDevice();
  HfRunnerOptions slow;
  slow.device = FastDevice();
  slow.device.compute_slowdown = 3.0;
  HfRunner a(config_, ckpt_, fast, &t1);
  HfRunner b(config_, ckpt_, slow, &t2);
  // Best of 5 per runner: one call is sub-millisecond, so a single
  // scheduling hiccup in the fast call would swamp the 3x slowdown.
  const auto min_latency_ms = [&](HfRunner& runner) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 5; ++i) {
      best = std::min(best, runner.Rerank(request_).stats.latency_ms);
    }
    return best;
  };
  const double t_fast = min_latency_ms(a);
  const double t_slow = min_latency_ms(b);
  EXPECT_GT(t_slow, t_fast * 1.8);
}

}  // namespace
}  // namespace prism
