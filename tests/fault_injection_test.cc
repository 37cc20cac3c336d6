// Fault-injection tests: a failing request must surface its error to exactly
// its own caller — no poisoned batchmates, no wedged dispatcher, no leaked
// SpillPool entries — whether the fault arrives through a CarouselScheduler
// or a SerialScheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/core/scheduler.h"
#include "tests/fault_injection.h"
#include "tests/test_util.h"

namespace prism {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestModel();
    ckpt_ = TestCheckpoint(config_);
    for (size_t i = 0; i < 8; ++i) {
      requests_.push_back(TestRequest(config_, 10 + i % 3, 3, i));
    }
  }

  PrismOptions EngineOptions() const {
    PrismOptions options;
    options.device = FastDevice();
    return options;
  }

  ModelConfig config_;
  std::string ckpt_;
  std::vector<RerankRequest> requests_;
};

TEST_F(FaultInjectionTest, CarouselSurfacesErrorsPerRequestWithoutWedging) {
  // FlakyRunner composes with the carousel through the same runner seam:
  // doomed requests fail during a Step — mid-cycle, with co-resident
  // requests in flight — and must surface kIoError to exactly their own
  // caller while batchmates stay bit-identical to serial and the carousel
  // keeps revolving.
  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
  MemoryTracker ref_tracker;
  PrismEngine reference(config_, ckpt_, EngineOptions(), &ref_tracker);

  FaultPlan plan;
  plan.fail_sequence = {false, true, false, true, true, false, false, false};
  FlakyRunner flaky(&engine, plan);
  CarouselScheduler scheduler(&flaky, /*max_inflight=*/4, /*compute_threads=*/2);

  std::vector<RerankResult> results(requests_.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < requests_.size(); ++i) {
    clients.emplace_back([&, i] { results[i] = scheduler.Submit(requests_[i]); });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  size_t failed = 0;
  for (size_t i = 0; i < requests_.size(); ++i) {
    if (!results[i].status.ok()) {
      ++failed;
      EXPECT_EQ(results[i].status.code(), StatusCode::kIoError);
      EXPECT_TRUE(results[i].topk.empty());
      for (float score : results[i].scores) {
        EXPECT_TRUE(std::isnan(score));
      }
    } else {
      const RerankResult expected = reference.Rerank(requests_[i]);
      EXPECT_EQ(results[i].topk, expected.topk) << "request " << i;
      EXPECT_EQ(results[i].scores, expected.scores) << "request " << i;
    }
  }
  EXPECT_EQ(failed, 3u);
  EXPECT_EQ(flaky.injected_failures(), 3u);

  // The carousel must still be alive after the faults: later requests run.
  const RerankResult after = scheduler.Submit(requests_[0]);
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(after.topk, reference.Rerank(requests_[0]).topk);
}

TEST_F(FaultInjectionTest, CarouselFaultsDoNotLeakSpillPoolEntries) {
  // Spill-enabled engine under seeded random faults through the carousel:
  // a doomed request's inner ticket is abandoned mid-flight, which must
  // drop its parked chunks; served requests release theirs at exit. After
  // every round the pool is back to baseline.
  PrismOptions options = EngineOptions();
  options.offload_hidden = true;
  options.chunk_candidates = 3;
  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  ASSERT_NE(engine.spill_pool(), nullptr);

  FaultPlan plan;
  plan.fail_probability = 0.4;
  plan.seed = 11;
  FlakyRunner flaky(&engine, plan);
  CarouselScheduler scheduler(&flaky, /*max_inflight=*/3, /*compute_threads=*/2);

  std::vector<std::thread> clients;
  std::atomic<size_t> ok{0};
  std::atomic<size_t> failed{0};
  for (size_t round = 0; round < 3; ++round) {
    clients.clear();
    for (size_t i = 0; i < requests_.size(); ++i) {
      clients.emplace_back([&, i] {
        const RerankResult result = scheduler.Submit(requests_[i]);
        (result.status.ok() ? ok : failed).fetch_add(1);
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    EXPECT_EQ(engine.spill_pool()->live_entries(), 0u) << "round " << round;
  }
  EXPECT_EQ(ok.load() + failed.load(), 3 * requests_.size());
  EXPECT_GT(failed.load(), 0u);  // p=0.4 over 24 draws: ~1e-6 to miss.
  EXPECT_GT(ok.load(), 0u);
}

TEST_F(FaultInjectionTest, SerialSchedulerForwardsInjectedErrors) {
  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
  FaultPlan plan;
  plan.fail_sequence = {true, false};
  FlakyRunner flaky(&engine, plan);
  SerialScheduler scheduler(&flaky);

  const RerankResult failed = scheduler.Submit(requests_[0]);
  EXPECT_EQ(failed.status.code(), StatusCode::kIoError);
  const RerankResult served = scheduler.Submit(requests_[0]);
  EXPECT_TRUE(served.status.ok());
  EXPECT_EQ(served.topk.size(), 3u);
}

}  // namespace
}  // namespace prism
