#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/online_calibrator.h"
#include "src/core/service.h"
#include "src/data/metrics.h"
#include "tests/test_util.h"

namespace prism {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestModel();
    ckpt_ = TestCheckpoint(config_);
    const SyntheticDataset data(DatasetByName("wikipedia"), config_, 17);
    for (size_t i = 0; i < 6; ++i) {
      requests_.push_back(RerankRequest::FromQuery(data.MakeQuery(i, 14), 4));
    }
  }

  ModelConfig config_;
  std::string ckpt_;
  std::vector<RerankRequest> requests_;
};

TEST_F(ServiceTest, AggregatesStats) {
  MemoryTracker tracker;
  ServiceOptions options;
  options.engine.device = FastDevice();
  RerankService service(config_, ckpt_, options, &tracker);
  for (const RerankRequest& request : requests_) {
    const RerankResult result = service.Rerank(request);
    EXPECT_EQ(result.topk.size(), 4u);
  }
  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.requests, requests_.size());
  EXPECT_EQ(stats.total_candidates, static_cast<int64_t>(6 * 14));
  // Pruning executed less than full work.
  EXPECT_LT(stats.WorkFraction(config_.n_layers), 1.0);
  EXPECT_GT(stats.WorkFraction(config_.n_layers), 0.0);
}

TEST_F(ServiceTest, DeadlineSheddingUnderOverload) {
  // Serial scheduler: the first request holds the runner while the rest wait
  // past their deadlines.
  MemoryTracker tracker;
  ServiceOptions options;
  options.max_inflight = 1;
  options.compute_threads = 2;
  // Throttled SSD so a request takes real wall time.
  options.engine.device = SlowSsdDevice(24.0 * 1024 * 1024);
  RerankService service(config_, ckpt_, options, &tracker);

  std::atomic<size_t> shed{0};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (size_t i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      RerankRequest request = TestRequest(config_, 10 + i % 3, 3, i);
      if (i > 0) {
        request.deadline_ms = 0.5;  // Expires while the first request runs.
      }
      const RerankResult result = service.Rerank(request);
      if (result.status.code() == StatusCode::kDeadlineExceeded) {
        EXPECT_TRUE(result.topk.empty());
        shed.fetch_add(1);
      } else {
        EXPECT_TRUE(result.status.ok());
        served.fetch_add(1);
      }
    });
    if (i == 0) {
      // Give the long request a head start so the rest genuinely queue.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_GE(served.load(), 1u);
  EXPECT_GE(shed.load(), 1u) << "no request was shed despite 0.5ms deadlines under load";
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, shed.load());
  EXPECT_EQ(stats.requests, 4u);
}

// A malformed request gets kInvalidArgument instead of aborting the process,
// and the service keeps serving bit-identically afterwards.
TEST_F(ServiceTest, MalformedRequestsFailWithoutAbortingTheService) {
  RerankRequest zero_k = requests_[0];
  zero_k.k = 0;
  RerankRequest bad_token = requests_[1];
  bad_token.docs[2][0] = static_cast<uint32_t>(config_.vocab_size);
  RerankRequest empty_doc = requests_[2];
  empty_doc.docs[1].clear();

  MemoryTracker tracker;
  ServiceOptions options;
  options.engine.device = FastDevice();
  RerankService service(config_, ckpt_, options, &tracker);
  for (const RerankRequest* bad : {&zero_k, &bad_token, &empty_doc}) {
    const RerankResult result = service.Rerank(*bad);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument) << result.status.ToString();
    EXPECT_TRUE(result.topk.empty());
  }
  const RerankResult served = service.Rerank(requests_[3]);
  EXPECT_EQ(service.stats().errors, 3u);

  MemoryTracker fresh_tracker;
  RerankService fresh(config_, ckpt_, options, &fresh_tracker);
  const RerankResult expected = fresh.Rerank(requests_[3]);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(served.topk, expected.topk);
  ASSERT_EQ(served.scores.size(), expected.scores.size());
  EXPECT_EQ(std::memcmp(served.scores.data(), expected.scores.data(),
                        served.scores.size() * sizeof(float)),
            0);

  // The engine's carousel pass rejects per request too: a malformed
  // request boarding at the same boundary as a valid one fails alone, at
  // admission, and its batchmate is served bit-identically.
  {
    std::unique_ptr<CarouselPass> pass = service.engine().BeginCarousel();
    const RerankRequest* boarding[] = {&zero_k, &requests_[3]};
    std::vector<std::unique_ptr<CarouselTicket>> tickets = pass->AdmitBatch(boarding, nullptr);
    ASSERT_EQ(tickets.size(), 2u);
    ASSERT_TRUE(tickets[0]->done());
    EXPECT_EQ(tickets[0]->TakeResult().status.code(), StatusCode::kInvalidArgument);
    CarouselTicket* batchmate = tickets[1].get();
    for (size_t layer = 0; !batchmate->done(); ++layer) {
      pass->Step(layer, {&batchmate, 1}, nullptr);
    }
    const RerankResult result = batchmate->TakeResult();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.topk, expected.topk);
    ASSERT_EQ(result.scores.size(), expected.scores.size());
    EXPECT_EQ(std::memcmp(result.scores.data(), expected.scores.data(),
                          result.scores.size() * sizeof(float)),
              0);
  }

  // A directly constructed carousel has no service in front of it: the
  // engine's pass rejects malformed requests at admission, never steps
  // them, and keeps serving bit-identically.
  CarouselScheduler carousel(&service.engine(), /*max_inflight=*/2, /*compute_threads=*/2);
  for (const RerankRequest* bad : {&zero_k, &bad_token, &empty_doc}) {
    const RerankResult result = carousel.Submit(*bad);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument) << result.status.ToString();
    EXPECT_TRUE(result.topk.empty());
    EXPECT_EQ(result.stats.bytes_streamed, 0);
    EXPECT_EQ(result.stats.layers_until_done, 0u);
  }
  const RerankResult via_carousel = carousel.Submit(requests_[3]);
  ASSERT_TRUE(via_carousel.status.ok()) << via_carousel.status.ToString();
  EXPECT_EQ(via_carousel.topk, expected.topk);
  ASSERT_EQ(via_carousel.scores.size(), expected.scores.size());
  EXPECT_EQ(std::memcmp(via_carousel.scores.data(), expected.scores.data(),
                        via_carousel.scores.size() * sizeof(float)),
            0);
}

TEST_F(ServiceTest, IdleWithoutCalibrationIsNoop) {
  MemoryTracker tracker;
  ServiceOptions options;
  options.engine.device = FastDevice();
  RerankService service(config_, ckpt_, options, &tracker);
  EXPECT_TRUE(std::isnan(service.OnIdle()));
}

TEST_F(ServiceTest, OnlineCalibrationAdjustsThreshold) {
  MemoryTracker tracker;
  ServiceOptions options;
  options.engine.device = FastDevice();
  options.engine.dispersion_threshold = 0.3f;
  options.online_calibration = true;
  options.calibration.sample_every = 1;
  options.calibration.target_precision = 1.01;  // Unreachable → always raise.
  RerankService service(config_, ckpt_, options, &tracker);
  for (const RerankRequest& request : requests_) {
    service.Rerank(request);
  }
  const float before = service.current_threshold();
  const double agreement = service.OnIdle();
  EXPECT_FALSE(std::isnan(agreement));
  EXPECT_GT(service.current_threshold(), before);  // Raised for precision.
}

TEST_F(ServiceTest, OnlineCalibrationLowersWhenComfortable) {
  MemoryTracker tracker;
  ServiceOptions options;
  options.engine.device = FastDevice();
  options.engine.dispersion_threshold = 0.8f;  // Very conservative start.
  options.online_calibration = true;
  options.calibration.sample_every = 1;
  options.calibration.target_precision = 0.0;  // Always comfortable.
  RerankService service(config_, ckpt_, options, &tracker);
  for (const RerankRequest& request : requests_) {
    service.Rerank(request);
  }
  const float before = service.current_threshold();
  service.OnIdle();
  EXPECT_LT(service.current_threshold(), before);  // Lowered for performance.
}

TEST_F(ServiceTest, ConvergesTowardTargetOverCycles) {
  MemoryTracker tracker;
  ServiceOptions options;
  options.engine.device = FastDevice();
  options.engine.dispersion_threshold = 0.02f;  // Start very aggressive.
  options.online_calibration = true;
  options.calibration.sample_every = 1;
  options.calibration.target_precision = 0.95;
  RerankService service(config_, ckpt_, options, &tracker);
  double last_agreement = 0.0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (const RerankRequest& request : requests_) {
      service.Rerank(request);
    }
    last_agreement = service.OnIdle();
  }
  EXPECT_GE(last_agreement, 0.90);  // Feedback drove agreement up near target.
}

TEST_F(ServiceTest, OnlineCalibrationNudgesByFixedFactorsWithinBounds) {
  // Each idle cycle multiplies the threshold by exactly 1.30f below target
  // and 0.90f at or above it, then clamps it to [0.02f, 1.5f].
  const auto cycle = [&](float start, double target, int cycles) {
    MemoryTracker tracker;
    ServiceOptions options;
    options.engine.device = FastDevice();
    options.engine.dispersion_threshold = start;
    options.online_calibration = true;
    options.calibration.sample_every = 1;
    options.calibration.target_precision = target;
    RerankService service(config_, ckpt_, options, &tracker);
    std::vector<float> thresholds;
    for (int c = 0; c < cycles; ++c) {
      service.Rerank(requests_[static_cast<size_t>(c) % requests_.size()]);
      EXPECT_FALSE(std::isnan(service.OnIdle()));
      thresholds.push_back(service.current_threshold());
    }
    return thresholds;
  };

  const std::vector<float> raised = cycle(0.3f, 1.01, 10);  // Unreachable: raise.
  EXPECT_EQ(raised[0], 0.3f * 1.30f);
  for (size_t c = 1; c < raised.size(); ++c) {
    EXPECT_EQ(raised[c], std::min(raised[c - 1] * 1.30f, 1.5f)) << "cycle " << c;
  }
  EXPECT_EQ(raised.back(), 1.5f);

  const std::vector<float> lowered = cycle(0.05f, 0.0, 12);  // Always met: lower.
  EXPECT_EQ(lowered[0], 0.05f * 0.90f);
  for (size_t c = 1; c < lowered.size(); ++c) {
    EXPECT_EQ(lowered[c], std::max(lowered[c - 1] * 0.90f, 0.02f)) << "cycle " << c;
  }
  EXPECT_EQ(lowered.back(), 0.02f);
}

TEST_F(ServiceTest, CalibratingServiceHoldsOneModel) {
  // Calibration's ground truth is the serving engine run without pruning:
  // a calibrating service tracks what a plain one does at construction, and
  // serving plus an idle replay holds at most one pass's two layer blobs.
  MemoryTracker plain_tracker;
  MemoryTracker tracker;
  ServiceOptions options;
  options.engine.device = FastDevice();
  const RerankService plain(config_, ckpt_, options, &plain_tracker);
  options.online_calibration = true;
  options.calibration.sample_every = 1;
  RerankService service(config_, ckpt_, options, &tracker);
  EXPECT_EQ(tracker.CurrentTotal(), plain_tracker.CurrentTotal());
  for (const RerankRequest& request : requests_) {
    ASSERT_TRUE(service.Rerank(request).status.ok());
  }
  EXPECT_FALSE(std::isnan(service.OnIdle()));
  EXPECT_LE(tracker.PeakBytes(MemCategory::kWeights),
            static_cast<int64_t>(2 * LayerBlobBytes(config_, Precision::kFp32)));
}

TEST(OnlineCalibratorTest, SamplesEveryNth) {
  const ModelConfig config = TestModel();
  const std::string ckpt = TestCheckpoint(config);
  MemoryTracker tracker;
  PrismOptions eopts;
  eopts.device = FastDevice();
  PrismEngine engine(config, ckpt, eopts, &tracker);
  OnlineCalibratorOptions options;
  options.sample_every = 3;
  OnlineCalibrator calibrator(&engine, options);
  const RerankRequest request = TestRequest(config, 10, 3);
  const RerankResult result = engine.Rerank(request);
  for (int i = 0; i < 7; ++i) {
    calibrator.Observe(request, result);
  }
  EXPECT_EQ(calibrator.pending_samples(), 3u);  // Requests 0, 3, 6.
  EXPECT_EQ(calibrator.requests_served(), 7u);
}

TEST(OnlineCalibratorTest, LogIsBounded) {
  const ModelConfig config = TestModel();
  const std::string ckpt = TestCheckpoint(config);
  MemoryTracker tracker;
  PrismOptions eopts;
  eopts.device = FastDevice();
  PrismEngine engine(config, ckpt, eopts, &tracker);
  OnlineCalibratorOptions options;
  options.sample_every = 1;
  options.max_samples = 4;
  OnlineCalibrator calibrator(&engine, options);
  const RerankRequest request = TestRequest(config, 10, 3);
  const RerankResult result = engine.Rerank(request);
  for (int i = 0; i < 10; ++i) {
    calibrator.Observe(request, result);
  }
  EXPECT_EQ(calibrator.pending_samples(), 4u);
}

TEST(ServiceStatsOverloadTest, ShedRequestsLeavePercentilesUntouched) {
  // Shed and failed requests are counted in `shed`/`errors` and nowhere
  // else: they burned no engine work, so the served-only work aggregates
  // must not move when an overload burst is answered in ~0 ms.
  ServiceStats stats;
  RerankRequest request;
  request.docs.resize(14);
  RerankResult ok;
  for (int i = 1; i <= 10; ++i) {
    stats.Observe(request, ok);
  }
  const int64_t candidates_before = stats.total_candidates;

  // An overload burst: 100 shed requests answered in ~0 ms, plus one error.
  for (int i = 0; i < 100; ++i) {
    stats.Observe(request, MakeShedResult(/*deadline_ms=*/5.0, /*waited_ms=*/5.1));
  }
  RerankResult failed;
  failed.status = Status::IoError("injected");
  stats.Observe(request, failed);

  EXPECT_EQ(stats.requests, 111u);
  EXPECT_EQ(stats.shed, 100u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.served(), 10u);
  // Shed requests burned no engine work: WorkFraction's denominator must
  // not grow either.
  EXPECT_EQ(stats.total_candidates, candidates_before);
}

TEST(ServiceStatsTest, ServedClampsTornSnapshots) {
  // A hand-built snapshot may carry shed + errors > requests. The
  // unsigned subtraction must clamp to 0, not wrap to ~2^64 (which would
  // poison every served()-derived rate).
  ServiceStats torn;
  torn.requests = 5;
  torn.shed = 4;
  torn.errors = 2;
  EXPECT_EQ(torn.served(), 0u);

  ServiceStats normal;
  normal.requests = 10;
  normal.shed = 3;
  normal.errors = 2;
  EXPECT_EQ(normal.served(), 5u);
}

TEST(NdcgTest, PerfectAndReversedRankings) {
  const std::vector<float> grades = {1.0f, 0.5f, 0.2f, 0.0f};
  EXPECT_DOUBLE_EQ(NdcgAtK({0, 1, 2, 3}, grades, 4), 1.0);
  EXPECT_LT(NdcgAtK({3, 2, 1, 0}, grades, 4), 0.8);
  EXPECT_GT(NdcgAtK({3, 2, 1, 0}, grades, 4), 0.0);
}

TEST(NdcgTest, TruncatesAtK) {
  const std::vector<float> grades = {1.0f, 1.0f, 0.0f};
  // Top-1 with the best item first is ideal regardless of the tail.
  EXPECT_DOUBLE_EQ(NdcgAtK({0, 2, 1}, grades, 1), 1.0);
  EXPECT_DOUBLE_EQ(NdcgAtK({2, 0, 1}, grades, 1), 0.0);
}

}  // namespace
}  // namespace prism
