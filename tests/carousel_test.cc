// CarouselScheduler and CarouselPass mechanics: continuous batching over the
// cyclic layer stream must keep every result bit-identical to serial
// execution while admitting at layer-0 boundaries, exiting finished requests
// mid-cycle, and reusing streamer buffers across wrap-arounds. Runs in the
// TSan and concurrency-stress CI lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/core/engine.h"
#include "src/core/scheduler.h"
#include "src/core/service.h"
#include "src/storage/blob_file.h"
#include "src/tensor/quant.h"
#include "tests/test_util.h"

namespace prism {
namespace {

class CarouselTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestModel();
    ckpt_ = TestCheckpoint(config_);
    for (size_t i = 0; i < 8; ++i) {
      requests_.push_back(TestRequest(config_, 10 + i % 4, 3, i));
    }
  }

  PrismOptions EngineOptions() const {
    PrismOptions options;
    options.device = FastDevice();
    return options;
  }

  std::vector<RerankResult> SerialReference() {
    MemoryTracker tracker;
    PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
    std::vector<RerankResult> results;
    for (const RerankRequest& request : requests_) {
      results.push_back(engine.Rerank(request));
    }
    return results;
  }

  ModelConfig config_;
  std::string ckpt_;
  std::vector<RerankRequest> requests_;
};

TEST_F(CarouselTest, SchedulerMatchesSerialBitIdentically) {
  const std::vector<RerankResult> reference = SerialReference();

  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
  CarouselScheduler scheduler(&engine, /*max_inflight=*/3, /*compute_threads=*/2);

  std::vector<RerankResult> results(requests_.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < requests_.size(); ++i) {
    clients.emplace_back([&, i] { results[i] = scheduler.Submit(requests_[i]); });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (size_t i = 0; i < requests_.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << "request " << i;
    EXPECT_EQ(results[i].topk, reference[i].topk) << "request " << i;
    EXPECT_EQ(results[i].scores, reference[i].scores) << "request " << i;
    // The carousel runs exactly the layers the serial plan ran — no request
    // is forwarded outside its plan (also CHECKed inside ForwardGroup).
    EXPECT_EQ(results[i].stats.layers_until_done, reference[i].stats.layers_until_done)
        << "request " << i;
    EXPECT_EQ(results[i].stats.candidate_layers, reference[i].stats.candidate_layers)
        << "request " << i;
  }

  const CarouselScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.admitted, requests_.size());
  EXPECT_GE(stats.passes, 1u);
  EXPECT_GE(stats.cycles, stats.passes);

  // A request whose serial plan terminated before the last layer must have
  // exited the carousel mid-cycle instead of waiting for the wrap.
  size_t early_in_serial = 0;
  for (const RerankResult& result : reference) {
    if (result.stats.layers_until_done < config_.n_layers) {
      ++early_in_serial;
    }
  }
  if (early_in_serial > 0) {
    EXPECT_GE(stats.exited_early, 1u);
  }
}

TEST_F(CarouselTest, SchedulerMatchesSerialAtEveryReducedPrecision) {
  // The bit-identical-to-serial contract is precision-blind: the carousel
  // decodes the same quantized layer stream the serial path decodes, so each
  // tier must agree with its own serial baseline to the last bit. Cross-tier
  // drift against fp32 is golden_test's calibrated business, not ours.
  for (const Precision precision :
       {Precision::kFp16, Precision::kInt8, Precision::kW4}) {
    const std::string ckpt = TestCheckpoint(config_, precision);
    PrismOptions options = EngineOptions();
    options.precision = precision;
    MemoryTracker ref_tracker;
    PrismEngine reference(config_, ckpt, options, &ref_tracker);
    std::vector<RerankResult> expected;
    for (const RerankRequest& request : requests_) {
      expected.push_back(reference.Rerank(request));
    }

    MemoryTracker tracker;
    PrismEngine engine(config_, ckpt, options, &tracker);
    CarouselScheduler scheduler(&engine, /*max_inflight=*/3, /*compute_threads=*/2);
    std::vector<RerankResult> results(requests_.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < requests_.size(); ++i) {
      clients.emplace_back([&, i] { results[i] = scheduler.Submit(requests_[i]); });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    for (size_t i = 0; i < requests_.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok())
          << PrecisionName(precision) << " request " << i;
      EXPECT_EQ(results[i].topk, expected[i].topk)
          << PrecisionName(precision) << " request " << i;
      EXPECT_EQ(results[i].scores, expected[i].scores)
          << PrecisionName(precision) << " request " << i;
      EXPECT_EQ(results[i].stats.layers_until_done, expected[i].stats.layers_until_done)
          << PrecisionName(precision) << " request " << i;
    }
    EXPECT_EQ(scheduler.stats().admitted, requests_.size()) << PrecisionName(precision);
  }
}

TEST_F(CarouselTest, LingerKeepsOnePassWarmAcrossSequentialRequests) {
  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
  MemoryTracker ref_tracker;
  PrismEngine reference(config_, ckpt_, EngineOptions(), &ref_tracker);
  // Reference results up front so nothing but the inter-submit gap is on
  // the clock against the linger window.
  std::vector<RerankResult> expected;
  for (size_t round = 0; round < 3; ++round) {
    expected.push_back(reference.Rerank(requests_[round]));
  }
  // On virtual time the test is deterministic rather than merely likely:
  // this thread joins the simulation, so while it is between submissions the
  // clock cannot advance — the dispatcher's 2000 ms linger timeout can never
  // fire early, and every submission lands inside the warm window by
  // construction.
  SimClock clock;
  CarouselScheduler scheduler(&engine, /*max_inflight=*/2, /*compute_threads=*/2,
                              /*linger_ms=*/2000.0, &clock);
  {
    const ClockMembership membership(&clock);
    for (size_t round = 0; round < 3; ++round) {
      const RerankResult result = scheduler.Submit(requests_[round]);
      ASSERT_TRUE(result.status.ok());
      EXPECT_EQ(result.topk, expected[round].topk) << "round " << round;
    }
    const CarouselScheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.passes, 1u);
    EXPECT_GE(stats.cycles, 3u);
  }
}

TEST_F(CarouselTest, ZeroLingerSpinsUpOnePassPerBusyPeriod) {
  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
  MemoryTracker ref_tracker;
  PrismEngine reference(config_, ckpt_, EngineOptions(), &ref_tracker);
  SimClock clock;
  CarouselScheduler scheduler(&engine, /*max_inflight=*/2, /*compute_threads=*/2,
                              /*linger_ms=*/0.0, &clock);

  // Without a linger window each sequential submission finds the carousel
  // torn down and must spin it up again. A 1 ms virtual sleep between
  // submissions guarantees (not just makes likely, as a real-time sleep
  // would) that the dispatcher ended the pass first: virtual time can only
  // reach now+1 once every participant is parked without a nearer tag, and
  // the dispatcher's only such parking spot is the torn-down idle wait —
  // with linger 0 its timeout wait gives up at `now` without parking.
  {
    const ClockMembership membership(&clock);
    for (size_t round = 0; round < 3; ++round) {
      const RerankResult result = scheduler.Submit(requests_[round]);
      ASSERT_TRUE(result.status.ok());
      EXPECT_EQ(result.topk, reference.Rerank(requests_[round]).topk) << "round " << round;
      clock.SleepFor(1.0);
    }
  }
  EXPECT_EQ(scheduler.stats().passes, 3u);
}

TEST_F(CarouselTest, PassWrapAroundServesLateJoinerBitIdentically) {
  // Drive a CarouselPass by hand: admit A and B together, but hold B back
  // from every group of the first cycle (a late joiner riding the next
  // revolution). B's layers arrive from the *wrapped* schedule — the cyclic
  // streamer's second cycle — and its result must still be bit-identical.
  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
  MemoryTracker ref_tracker;
  PrismEngine reference(config_, ckpt_, EngineOptions(), &ref_tracker);
  const RerankResult expected_a = reference.Rerank(requests_[0]);
  const RerankResult expected_b = reference.Rerank(requests_[1]);

  std::unique_ptr<CarouselPass> pass = engine.BeginCarousel();
  ASSERT_NE(pass, nullptr);
  ASSERT_EQ(pass->n_layers(), config_.n_layers);
  const RerankRequest* boarding[] = {&requests_[0], &requests_[1]};
  std::vector<std::unique_ptr<CarouselTicket>> tickets = pass->AdmitBatch(boarding, nullptr);
  std::unique_ptr<CarouselTicket> a = std::move(tickets[0]);
  std::unique_ptr<CarouselTicket> b = std::move(tickets[1]);

  // Cycle 0: A only. B stays parked at depth 0.
  size_t steps = 0;
  std::vector<CarouselTicket*> group;
  for (size_t layer = 0; layer < config_.n_layers && !a->done(); ++layer) {
    group.assign(1, a.get());
    pass->Step(layer, group, /*compute_pool=*/nullptr);
    ++steps;
  }
  ASSERT_TRUE(a->done());
  const RerankResult result_a = a->TakeResult();
  a.reset();

  // Realign at the next boundary if A terminated mid-cycle.
  if (steps % config_.n_layers != 0) {
    pass->SkipToNextCycle();
  }

  // Cycle 1: B rides the wrapped schedule from layer 0.
  EXPECT_EQ(b->next_layer(), 0u);
  for (size_t layer = 0; layer < config_.n_layers && !b->done(); ++layer) {
    group.assign(1, b.get());
    pass->Step(layer, group, /*compute_pool=*/nullptr);
  }
  ASSERT_TRUE(b->done());
  const RerankResult result_b = b->TakeResult();
  b.reset();

  EXPECT_EQ(result_a.topk, expected_a.topk);
  EXPECT_EQ(result_a.scores, expected_a.scores);
  EXPECT_EQ(result_b.topk, expected_b.topk);
  EXPECT_EQ(result_b.scores, expected_b.scores);
}

TEST_F(CarouselTest, PassReadsLayerZeroOnceAcrossCycles) {
  // One busy period of sequential requests: each rides its own cycle, a
  // request that exits early wraps the carousel early, and between requests
  // the pass lingers at the boundary. The cyclic stream pins layer 0, so the
  // device reads its blob once for the whole pass (a serial Rerank reads it
  // once per request), and the pass holds at most three layer blobs: the
  // head plus the two the stream double-buffers (Rerank holds two).
  constexpr size_t kRequests = 6;
  MemoryTracker ref_tracker;
  PrismEngine reference(config_, ckpt_, EngineOptions(), &ref_tracker);
  std::vector<RerankResult> expected;
  size_t early = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    expected.push_back(reference.Rerank(requests_[i]));
    early += expected.back().stats.layers_until_done < config_.n_layers ? 1 : 0;
  }
  ASSERT_GE(early, 1u) << "no request wraps the carousel early";
  EXPECT_EQ(reference.layer_reads(0), static_cast<int64_t>(kRequests));

  auto reader = BlobFileReader::Open(ckpt_, FastDevice().ssd);
  ASSERT_TRUE(reader.ok());
  int64_t blob_bytes = 0;
  for (size_t layer = 0; layer < config_.n_layers; ++layer) {
    blob_bytes = std::max(blob_bytes, reader.value()->BlobSize(LayerBlobIndex(layer)));
  }
  EXPECT_LE(ref_tracker.PeakBytes(MemCategory::kWeights), 2 * blob_bytes);

  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, EngineOptions(), &tracker);
  SimClock clock;
  {
    CarouselScheduler scheduler(&engine, /*max_inflight=*/2, /*compute_threads=*/2,
                                /*linger_ms=*/2000.0, &clock);
    const ClockMembership membership(&clock);
    for (size_t i = 0; i < kRequests; ++i) {
      const RerankResult result = scheduler.Submit(requests_[i]);
      ASSERT_TRUE(result.status.ok()) << "request " << i;
      EXPECT_EQ(result.topk, expected[i].topk) << "request " << i;
      EXPECT_EQ(result.scores, expected[i].scores) << "request " << i;
      EXPECT_EQ(result.stats.layers_until_done, expected[i].stats.layers_until_done)
          << "request " << i;
    }
    const CarouselScheduler::Stats stats = scheduler.stats();
    EXPECT_EQ(stats.passes, 1u);
    EXPECT_GE(stats.cycles, kRequests);
  }
  EXPECT_EQ(engine.layer_reads(0), 1);
  EXPECT_LE(tracker.PeakBytes(MemCategory::kWeights), 3 * blob_bytes);
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kWeights), 0);
}

TEST_F(CarouselTest, AbandonedTicketReleasesSpilledChunks) {
  PrismOptions options = EngineOptions();
  options.offload_hidden = true;
  options.chunk_candidates = 3;
  options.pruning = false;  // Keep the request alive past its first layer.
  MemoryTracker tracker;
  PrismEngine engine(config_, ckpt_, options, &tracker);
  ASSERT_NE(engine.spill_pool(), nullptr);

  std::unique_ptr<CarouselPass> pass = engine.BeginCarousel();
  const RerankRequest* first[] = {&requests_[0]};
  std::unique_ptr<CarouselTicket> ticket = std::move(pass->AdmitBatch(first, nullptr)[0]);
  std::vector<CarouselTicket*> group{ticket.get()};
  pass->Step(0, group, nullptr);  // Chunks now parked in the spill pool.
  ASSERT_FALSE(ticket->done());
  EXPECT_GT(engine.spill_pool()->live_entries(), 0u);
  ticket.reset();  // Abandon mid-flight (what a fault wrapper does).
  EXPECT_EQ(engine.spill_pool()->live_entries(), 0u);
  // The pass is still usable for other requests afterwards.
  pass->SkipToNextCycle();
  const RerankRequest* second[] = {&requests_[1]};
  std::unique_ptr<CarouselTicket> next = std::move(pass->AdmitBatch(second, nullptr)[0]);
  for (size_t layer = 0; layer < config_.n_layers && !next->done(); ++layer) {
    group.assign(1, next.get());
    pass->Step(layer, group, nullptr);
  }
  ASSERT_TRUE(next->done());
  EXPECT_TRUE(next->TakeResult().status.ok());
  next.reset();
  EXPECT_EQ(engine.spill_pool()->live_entries(), 0u);
}

TEST_F(CarouselTest, HighPriorityDispatchesBeforeEarlierLowPriority) {
  // A carousel with room for one resident admits one request per boundary,
  // which makes queue order observable through completion order: while a
  // blocker occupies the engine, a low-priority request is admitted first
  // and a high-priority one second; the high one must still dispatch (and
  // finish) first.
  MemoryTracker tracker;
  PrismOptions engine_options;
  engine_options.device = SlowSsdDevice(2.0 * 1024 * 1024);  // ~60ms/request.
  PrismEngine engine(config_, ckpt_, engine_options, &tracker);
  CarouselScheduler scheduler(&engine, /*max_inflight=*/1, /*compute_threads=*/1);

  std::atomic<int> finish_seq{0};
  int low_finished_at = -1;
  int high_finished_at = -1;

  std::thread blocker([&] { scheduler.Submit(requests_[0]); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // Blocker dispatched.
  std::thread low_client([&] {
    RerankRequest low = requests_[1];
    low.priority = -1;
    const RerankResult result = scheduler.Submit(low);
    EXPECT_TRUE(result.status.ok());
    low_finished_at = finish_seq.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // Low admitted first.
  std::thread high_client([&] {
    RerankRequest high = requests_[2];
    high.priority = 7;
    const RerankResult result = scheduler.Submit(high);
    EXPECT_TRUE(result.status.ok());
    high_finished_at = finish_seq.fetch_add(1);
  });
  blocker.join();
  low_client.join();
  high_client.join();
  EXPECT_LT(high_finished_at, low_finished_at)
      << "the later-admitted high-priority request should have dispatched first";
}

TEST(RequestQueueTryPopTest, NonBlockingPopShedsAndDrains) {
  SimClock clock;
  RequestQueue queue(&clock);
  const ModelConfig config = TestModel();
  EXPECT_TRUE(queue.Pop(4, /*timeout_ms=*/0.0).empty());  // Empty queue: returns, no block.

  std::vector<RerankRequest> requests;
  for (size_t i = 0; i < 3; ++i) {
    requests.push_back(TestRequest(config, 8, 2, i));
  }
  requests[1].deadline_ms = 7.0;
  std::vector<std::future<RerankResult>> futures;
  for (const RerankRequest& request : requests) {
    futures.push_back(queue.Push(request));
  }
  // Expiry is `now >= admitted + deadline`: advancing virtual time to the
  // exact expiry instant — not a tick further — must shed entry 1.
  clock.SleepUntil(7.0);
  EXPECT_EQ(clock.NowMs(), 7.0);
  std::vector<RequestQueue::Pending> batch = queue.Pop(2, /*timeout_ms=*/0.0);
  ASSERT_EQ(batch.size(), 2u);  // Entry 1 shed, entries 0 and 2 popped.
  EXPECT_EQ(batch[0].ticket, 0u);
  EXPECT_EQ(batch[1].ticket, 2u);
  // AwaitFuture, not a bare get(): the shed answer carries a PreWake token
  // that the awaiting side must consume (as every scheduler's Submit does).
  EXPECT_EQ(AwaitFuture(&clock, std::move(futures[1])).status.code(),
            StatusCode::kDeadlineExceeded);
  for (auto& pending : batch) {
    pending.promise.set_value(RerankResult{});
  }
  EXPECT_TRUE(queue.Pop(2, /*timeout_ms=*/0.0).empty());
}

TEST(RequestQueueTryPopTest, EpochTagsAtDrainAndBumpsThroughQueue) {
  RequestQueue queue;
  const ModelConfig config = TestModel();
  const RerankRequest request = TestRequest(config, 8, 2);
  // One admission event before the request arrives.
  auto first = queue.Push(request);
  std::vector<RequestQueue::Pending> earlier = queue.Pop(1, /*timeout_ms=*/0.0);
  ASSERT_EQ(earlier.size(), 1u);
  earlier[0].promise.set_value(RerankResult{});
  first.get();
  EXPECT_EQ(queue.epoch(), 1u);
  auto future = queue.Push(request);
  // Empty pops are not admission events: no bump.
  EXPECT_TRUE(queue.Pop(0, /*timeout_ms=*/0.0).empty());
  EXPECT_EQ(queue.epoch(), 1u);
  std::vector<RequestQueue::Pending> batch = queue.Pop(1, /*timeout_ms=*/0.0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].tag, 1u);     // Tagged with the epoch it arrived in...
  EXPECT_EQ(queue.epoch(), 2u);    // ...bumped by the non-empty pop.
  EXPECT_EQ(queue.epoch() - batch[0].tag, 1u);  // Exactly one admission event.
  batch[0].promise.set_value(RerankResult{});
  future.get();
}

TEST(RequestQueueTryPopTest, TimedPopGivesUpAtItsDeadlineOrTakesAnArrival) {
  SimClock clock;
  RequestQueue queue(&clock);
  const ModelConfig config = TestModel();
  const RerankRequest request = TestRequest(config, 8, 2);
  const ClockMembership membership(&clock);
  // Nothing arrives: the pop gives up empty exactly at its deadline.
  EXPECT_TRUE(queue.Pop(4, /*timeout_ms=*/5.0).empty());
  EXPECT_EQ(clock.NowMs(), 5.0);
  // An arrival inside the window is handed out at its arrival instant.
  std::future<RerankResult> future;
  clock.ExpectParticipants(1);  // Time stands still until the producer joins.
  std::thread producer([&] {
    const ClockMembership producer_membership(&clock);
    clock.SleepUntil(7.0);
    future = queue.Push(request);
  });
  std::vector<RequestQueue::Pending> batch = queue.Pop(4, /*timeout_ms=*/5.0);
  producer.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(clock.NowMs(), 7.0);
  batch[0].promise.set_value(RerankResult{});
  future.get();
}

}  // namespace
}  // namespace prism
