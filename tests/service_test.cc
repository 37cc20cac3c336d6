#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
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
  EXPECT_GT(stats.MeanLatencyMs(), 0.0);
  EXPECT_GE(stats.max_latency_ms, stats.MeanLatencyMs());
  EXPECT_EQ(stats.total_candidates, static_cast<int64_t>(6 * 14));
  // Pruning executed less than full work.
  EXPECT_LT(stats.WorkFraction(config_.n_layers), 1.0);
  EXPECT_GT(stats.WorkFraction(config_.n_layers), 0.0);
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

TEST(OnlineCalibratorTest, SamplesEveryNth) {
  const ModelConfig config = TestModel();
  const std::string ckpt = TestCheckpoint(config);
  MemoryTracker t1;
  MemoryTracker t2;
  PrismOptions eopts;
  eopts.device = FastDevice();
  PrismEngine engine(config, ckpt, eopts, &t1);
  PrismOptions ropts;
  ropts.device = FastDevice();
  ropts.pruning = false;
  PrismEngine reference(config, ckpt, ropts, &t2);
  OnlineCalibratorOptions options;
  options.sample_every = 3;
  OnlineCalibrator calibrator(&engine, &reference, options);
  const RerankRequest request = TestRequest(config, 10, 3);
  for (int i = 0; i < 7; ++i) {
    calibrator.Rerank(request);
  }
  EXPECT_EQ(calibrator.pending_samples(), 3u);  // Requests 0, 3, 6.
  EXPECT_EQ(calibrator.requests_served(), 7u);
}

TEST(OnlineCalibratorTest, LogIsBounded) {
  const ModelConfig config = TestModel();
  const std::string ckpt = TestCheckpoint(config);
  MemoryTracker t1;
  MemoryTracker t2;
  PrismOptions eopts;
  eopts.device = FastDevice();
  PrismEngine engine(config, ckpt, eopts, &t1);
  PrismOptions ropts;
  ropts.device = FastDevice();
  ropts.pruning = false;
  PrismEngine reference(config, ckpt, ropts, &t2);
  OnlineCalibratorOptions options;
  options.sample_every = 1;
  options.max_samples = 4;
  OnlineCalibrator calibrator(&engine, &reference, options);
  const RerankRequest request = TestRequest(config, 10, 3);
  for (int i = 0; i < 10; ++i) {
    calibrator.Rerank(request);
  }
  EXPECT_EQ(calibrator.pending_samples(), 4u);
}

TEST(ServiceStatsOverloadTest, ShedRequestsLeavePercentilesUntouched) {
  // Shed requests turn around in ~0 ms. Before the overload-stats fix those
  // near-zero latencies entered the ring and mean, so p50/p99/mean
  // *improved* under overload — exactly when they should degrade. Served
  // requests alone must define every latency aggregate.
  ServiceStats stats;
  RerankRequest request;
  request.docs.resize(14);
  RerankResult ok;
  for (int i = 1; i <= 10; ++i) {
    stats.Observe(request, ok, 100.0 * i);
  }
  const double p50_before = stats.P50LatencyMs();
  const double p99_before = stats.P99LatencyMs();
  const double mean_before = stats.MeanLatencyMs();
  const double max_before = stats.max_latency_ms;
  const int64_t candidates_before = stats.total_candidates;

  // An overload burst: 100 shed requests answered in ~0 ms, plus one error.
  for (int i = 0; i < 100; ++i) {
    stats.Observe(request, MakeShedResult(/*deadline_ms=*/5.0, /*waited_ms=*/5.1), 0.01);
  }
  RerankResult failed;
  failed.status = Status::IoError("injected");
  stats.Observe(request, failed, 0.02);

  EXPECT_EQ(stats.requests, 111u);
  EXPECT_EQ(stats.shed, 100u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.served(), 10u);
  EXPECT_DOUBLE_EQ(stats.P50LatencyMs(), p50_before);
  EXPECT_DOUBLE_EQ(stats.P99LatencyMs(), p99_before);
  EXPECT_DOUBLE_EQ(stats.MeanLatencyMs(), mean_before);
  EXPECT_DOUBLE_EQ(stats.max_latency_ms, max_before);
  EXPECT_EQ(stats.latency_samples.size(), 10u);
  // Shed requests burned no engine work: WorkFraction's denominator must
  // not grow either.
  EXPECT_EQ(stats.total_candidates, candidates_before);
}

TEST(ServiceStatsMergeTest, WeightedMergeKeepsPoolPercentilesUnbiased) {
  // Least-loaded placement makes replica traffic uneven (ties go to replica
  // 0, so light traffic never reaches the others): here the busy replica
  // served 100 observations per retained sample while the idle one retained
  // every observation. Raw sample concatenation (the old Merge) would give
  // the idle replica's samples 100× their real weight: 1536 concatenated
  // samples, p99 at rank 1521 — inside the idle replica's [500, 510] band.
  // The weighted merge subsamples the idle side down to ~5 samples first,
  // so every pool percentile must land in the busy replica's [100, 110]
  // band. This test fails against the concatenating Merge.
  ServiceStats busy;
  for (size_t i = 0; i < 1024; ++i) {
    busy.latency_samples.push_back(100.0 + static_cast<double>(i % 11));
  }
  busy.latency_observed = 1024 * 100;

  ServiceStats idle;
  for (size_t i = 0; i < 512; ++i) {
    idle.latency_samples.push_back(500.0 + static_cast<double>(i % 11));
  }
  idle.latency_observed = 512;

  ServiceStats pool;
  pool.Merge(busy);
  pool.Merge(idle);
  EXPECT_EQ(pool.latency_observed, busy.latency_observed + idle.latency_observed);
  EXPECT_GE(pool.P50LatencyMs(), 100.0);
  EXPECT_LE(pool.P50LatencyMs(), 110.0);
  EXPECT_GE(pool.P99LatencyMs(), 100.0);
  EXPECT_LE(pool.P99LatencyMs(), 110.0);
  // The subsampled idle side still shows up where it belongs: the tail
  // above its weight's share. p100 (the max) may be an idle-band sample.
  EXPECT_GT(pool.latency_samples.size(), 1024u);
  EXPECT_LT(pool.latency_samples.size(), 1536u);

  // Seeded subsampling: rebuilding the same merge yields byte-identical
  // samples (pool stats snapshots replay deterministically under SimClock).
  ServiceStats again;
  again.Merge(busy);
  again.Merge(idle);
  EXPECT_EQ(again.latency_samples, pool.latency_samples);
}

TEST(ServiceStatsMergeTest, EqualWeightMergeConcatenatesExactly) {
  // Two un-overflowed reservoirs (weight 1 each) merge exactly: nothing may
  // be subsampled away.
  ServiceStats a;
  a.latency_samples = {1.0, 2.0, 3.0};
  a.latency_observed = 3;
  ServiceStats b;
  b.latency_samples = {10.0, 20.0};
  b.latency_observed = 2;
  a.Merge(b);
  EXPECT_EQ(a.latency_samples, (std::vector<double>{1.0, 2.0, 3.0, 10.0, 20.0}));
  EXPECT_EQ(a.latency_observed, 5u);
}

TEST(ServiceStatsTest, ServedClampsTornSnapshots) {
  // A stripe fold can tear between an in-flight observation's `requests`
  // and `shed` increments, momentarily showing shed + errors > requests.
  // The unsigned subtraction must clamp to 0, not wrap to ~2^64 (which
  // poisoned MeanLatencyMs and every served()-derived rate).
  ServiceStats torn;
  torn.requests = 5;
  torn.shed = 4;
  torn.errors = 2;
  torn.total_latency_ms = 100.0;
  EXPECT_EQ(torn.served(), 0u);
  EXPECT_DOUBLE_EQ(torn.MeanLatencyMs(), 0.0);

  ServiceStats normal;
  normal.requests = 10;
  normal.shed = 3;
  normal.errors = 2;
  EXPECT_EQ(normal.served(), 5u);
}

TEST(ServiceStatsTest, CapacityOneReservoirStaysDeterministic) {
  // Degenerate reservoir: one slot. It must keep exactly one sample however
  // many observations arrive, count them all, and retain the same sample
  // for the same observation order.
  RerankRequest request;
  request.docs.resize(4);
  RerankResult ok;
  const auto run = [&] {
    ServiceStats stats;
    stats.latency_capacity = 1;
    for (int i = 1; i <= 100; ++i) {
      stats.Observe(request, ok, static_cast<double>(i));
    }
    return stats;
  };
  const ServiceStats stats = run();
  ASSERT_EQ(stats.latency_samples.size(), 1u);
  EXPECT_EQ(stats.latency_observed, 100u);
  // Any percentile of a one-sample reservoir is that sample.
  EXPECT_EQ(stats.P50LatencyMs(), stats.latency_samples[0]);
  EXPECT_EQ(stats.P99LatencyMs(), stats.latency_samples[0]);
  EXPECT_EQ(run().latency_samples, stats.latency_samples);
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
