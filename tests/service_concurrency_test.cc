// Concurrency tests for the staged pipeline and the batching service
// front-end. The load-bearing property throughout: results through any
// scheduler, batch size, or thread count are bit-identical to the serial
// path. This binary is also the main ThreadSanitizer target in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/rng.h"
#include "src/core/scheduler.h"
#include "src/core/service.h"
#include "tests/test_util.h"

namespace prism {
namespace {

std::vector<RerankRequest> MakeRequests(const ModelConfig& config, size_t count) {
  std::vector<RerankRequest> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    requests.push_back(TestRequest(config, 12 + i % 3, 3, i));
  }
  return requests;
}

class ServiceConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestModel();
    ckpt_ = TestCheckpoint(config_);
    requests_ = MakeRequests(config_, 6);
  }

  ServiceOptions ConcurrentOptions(size_t max_inflight) const {
    ServiceOptions options;
    options.engine.device = FastDevice();
    options.max_inflight = max_inflight;
    options.compute_threads = 4;
    return options;
  }

  std::vector<RerankResult> SerialReference() {
    MemoryTracker tracker;
    ServiceOptions options;
    options.engine.device = FastDevice();
    RerankService service(config_, ckpt_, options, &tracker);
    std::vector<RerankResult> results;
    results.reserve(requests_.size());
    for (const RerankRequest& request : requests_) {
      results.push_back(service.Rerank(request));
    }
    return results;
  }

  ModelConfig config_;
  std::string ckpt_;
  std::vector<RerankRequest> requests_;
};

TEST(RequestQueueTest, PopsInAdmissionOrder) {
  RequestQueue queue;
  const ModelConfig config = TestModel();
  std::vector<RerankRequest> requests = MakeRequests(config, 5);
  std::vector<std::shared_ptr<RequestQueue::Reply>> replies;
  for (const RerankRequest& request : requests) {
    replies.push_back(queue.Push(request));
  }
  EXPECT_EQ(queue.size(), 5u);
  std::vector<RequestQueue::Pending> first = queue.Pop(3, RequestQueue::kForever);
  ASSERT_EQ(first.size(), 3u);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].ticket, i);
    EXPECT_EQ(first[i].request, &requests[i]);
  }
  std::vector<RequestQueue::Pending> rest = queue.Pop(10, RequestQueue::kForever);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].ticket, 3u);
  EXPECT_EQ(rest[1].ticket, 4u);
  for (auto& pending : first) {
    queue.Answer(*pending.reply, RerankResult{});
  }
  for (auto& pending : rest) {
    queue.Answer(*pending.reply, RerankResult{});
  }
}

TEST(RequestQueueTest, PriorityThenFifoOrder) {
  RequestQueue queue;
  const ModelConfig config = TestModel();
  std::vector<RerankRequest> requests = MakeRequests(config, 6);
  // Tickets 0..5; priorities: 0, 2, 1, 2, 0, 1.
  const int priorities[] = {0, 2, 1, 2, 0, 1};
  std::vector<std::shared_ptr<RequestQueue::Reply>> replies;
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].priority = priorities[i];
    replies.push_back(queue.Push(requests[i]));
  }
  // Expected pop order: priority desc, ticket asc → 1, 3 (pri 2); 2, 5
  // (pri 1); 0, 4 (pri 0).
  const uint64_t expected[] = {1, 3, 2, 5, 0, 4};
  std::vector<RequestQueue::Pending> batch = queue.Pop(6, RequestQueue::kForever);
  ASSERT_EQ(batch.size(), 6u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].ticket, expected[i]) << "position " << i;
  }
  for (auto& pending : batch) {
    queue.Answer(*pending.reply, RerankResult{});
  }
}

TEST(RequestQueueTest, ExpiredEntriesAreShedWithErrorResult) {
  RequestQueue queue;
  const ModelConfig config = TestModel();
  std::vector<RerankRequest> requests = MakeRequests(config, 3);
  requests[0].deadline_ms = 0.01;
  requests[2].deadline_ms = 0.01;  // requests[1] has no deadline.
  std::vector<std::shared_ptr<RequestQueue::Reply>> replies;
  for (const RerankRequest& request : requests) {
    replies.push_back(queue.Push(request));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::vector<RequestQueue::Pending> batch = queue.Pop(4, RequestQueue::kForever);
  ASSERT_EQ(batch.size(), 1u);  // Only the undeadlined entry survives.
  EXPECT_EQ(batch[0].ticket, 1u);
  queue.Answer(*batch[0].reply, RerankResult{});
  for (size_t i : {size_t{0}, size_t{2}}) {
    const RerankResult shed = queue.Await(*replies[i]);
    EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded) << "request " << i;
    EXPECT_TRUE(shed.topk.empty());
  }
  EXPECT_TRUE(queue.Await(*replies[1]).status.ok());
}

// 16 producers hammer the queue with mixed priorities and deadlines while
// one consumer drains it. Invariants: every popped batch is sorted by
// (priority desc, ticket asc); within a priority class tickets dispatch
// in strictly increasing (FIFO) order across the whole run; every reply
// is answered — served requests with OK, shed requests with
// kDeadlineExceeded; nothing is lost or double-delivered.
TEST(RequestQueueTest, SixteenThreadStressKeepsPriorityThenFifoSemantics) {
  constexpr size_t kThreads = 16;
  constexpr size_t kPerThread = 8;
  constexpr size_t kTotal = kThreads * kPerThread;
  const ModelConfig config = TestModel();
  const RerankRequest base = TestRequest(config, 8, 2);

  RequestQueue queue;
  std::atomic<size_t> served{0};
  std::map<int, std::vector<uint64_t>> popped_by_priority;
  std::thread consumer([&] {
    for (;;) {
      std::vector<RequestQueue::Pending> batch = queue.Pop(4, RequestQueue::kForever);
      if (batch.empty()) {
        return;  // Closed and drained.
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        if (i > 0) {
          const bool ordered =
              batch[i - 1].priority > batch[i].priority ||
              (batch[i - 1].priority == batch[i].priority &&
               batch[i - 1].ticket < batch[i].ticket);
          EXPECT_TRUE(ordered) << "batch not in (priority desc, ticket asc) order at " << i;
        }
        popped_by_priority[batch[i].priority].push_back(batch[i].ticket);
      }
      // Stall occasionally so tight deadlines genuinely expire in-queue.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      for (auto& pending : batch) {
        RerankResult result;
        result.scores.push_back(static_cast<float>(pending.ticket));
        queue.Answer(*pending.reply, std::move(result));
        served.fetch_add(1);
      }
    }
  });

  std::vector<std::thread> producers;
  std::atomic<size_t> ok_seen{0};
  std::atomic<size_t> shed_seen{0};
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      std::vector<RerankRequest> mine(kPerThread, base);
      std::vector<std::shared_ptr<RequestQueue::Reply>> replies;
      for (size_t i = 0; i < kPerThread; ++i) {
        mine[i].priority = static_cast<int>((t + i) % 4) - 1;
        if (i % 2 == 1) {
          mine[i].deadline_ms = 0.05;  // Expires unless popped immediately.
        }
        replies.push_back(queue.Push(mine[i]));
      }
      for (auto& reply : replies) {
        const RerankResult result = queue.Await(*reply);
        if (result.status.ok()) {
          ok_seen.fetch_add(1);
        } else {
          EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
          EXPECT_TRUE(result.topk.empty());
          shed_seen.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  queue.Close();
  consumer.join();

  EXPECT_EQ(ok_seen.load() + shed_seen.load(), kTotal);
  EXPECT_EQ(served.load(), ok_seen.load());
  EXPECT_GT(shed_seen.load(), 0u) << "no deadline expired under a stalling consumer";
  EXPECT_GT(ok_seen.load(), 0u);
  // FIFO within a priority class, across the whole run.
  size_t total_popped = 0;
  for (const auto& [priority, tickets] : popped_by_priority) {
    for (size_t i = 1; i < tickets.size(); ++i) {
      EXPECT_LT(tickets[i - 1], tickets[i])
          << "priority " << priority << " dispatched out of FIFO order";
    }
    total_popped += tickets.size();
  }
  EXPECT_EQ(total_popped, ok_seen.load());
}

TEST(RequestQueueTest, CloseDrainsThenReturnsEmpty) {
  RequestQueue queue;
  const ModelConfig config = TestModel();
  const RerankRequest request = TestRequest(config, 10, 3);
  auto reply = queue.Push(request);
  queue.Close();
  std::vector<RequestQueue::Pending> batch = queue.Pop(4, RequestQueue::kForever);
  ASSERT_EQ(batch.size(), 1u);
  queue.Answer(*batch[0].reply, RerankResult{});
  EXPECT_TRUE(queue.Pop(4, RequestQueue::kForever).empty());
  queue.Await(*reply);
}

TEST_F(ServiceConcurrencyTest, AutoResolvesByMaxInflight) {
  // kAuto keeps one request serial and puts concurrency on the carousel.
  MemoryTracker tracker;
  RerankService serial(config_, ckpt_, ConcurrentOptions(1), &tracker);
  EXPECT_NE(dynamic_cast<const SerialScheduler*>(&serial.scheduler()), nullptr);
  RerankService concurrent(config_, ckpt_, ConcurrentOptions(2), &tracker);
  EXPECT_NE(dynamic_cast<const CarouselScheduler*>(&concurrent.scheduler()), nullptr);
  EXPECT_EQ(concurrent.name(), "service:carousel");
}

TEST_F(ServiceConcurrencyTest, ConcurrentServiceMatchesSerialBitIdentically) {
  const std::vector<RerankResult> reference = SerialReference();

  MemoryTracker tracker;
  RerankService service(config_, ckpt_, ConcurrentOptions(4), &tracker);
  std::vector<RerankResult> results(requests_.size());
  std::vector<std::thread> clients;
  clients.reserve(requests_.size());
  for (size_t i = 0; i < requests_.size(); ++i) {
    clients.emplace_back([&, i] { results[i] = service.Rerank(requests_[i]); });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (size_t i = 0; i < requests_.size(); ++i) {
    EXPECT_EQ(results[i].topk, reference[i].topk) << "request " << i;
    EXPECT_EQ(results[i].scores, reference[i].scores) << "request " << i;
  }
}

TEST_F(ServiceConcurrencyTest, IdenticalRequestsFromManyThreadsAgree) {
  const RerankRequest request = TestRequest(config_, 14, 4);
  MemoryTracker t1;
  ServiceOptions serial_options;
  serial_options.engine.device = FastDevice();
  RerankService serial(config_, ckpt_, serial_options, &t1);
  const RerankResult expected = serial.Rerank(request);

  MemoryTracker t2;
  RerankService service(config_, ckpt_, ConcurrentOptions(4), &t2);
  constexpr size_t kThreads = 8;
  std::vector<RerankResult> results(kThreads);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kThreads; ++i) {
    clients.emplace_back([&, i] { results[i] = service.Rerank(request); });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(results[i].topk, expected.topk) << "thread " << i;
    EXPECT_EQ(results[i].scores, expected.scores) << "thread " << i;
  }
}

TEST_F(ServiceConcurrencyTest, OffloadAndSpillSafeAcrossConcurrentRequests) {
  // Hidden-state offload shares one SpillPool across the batch; per-request
  // key namespacing must keep round-trips exact.
  ServiceOptions options = ConcurrentOptions(3);
  options.engine.offload_hidden = true;
  options.engine.chunk_candidates = 3;

  MemoryTracker t1;
  ServiceOptions serial_options;
  serial_options.engine = options.engine;
  RerankService serial(config_, ckpt_, serial_options, &t1);
  std::vector<RerankResult> reference;
  for (const RerankRequest& request : requests_) {
    reference.push_back(serial.Rerank(request));
  }

  MemoryTracker t2;
  RerankService service(config_, ckpt_, options, &t2);
  std::vector<RerankResult> results(requests_.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < requests_.size(); ++i) {
    clients.emplace_back([&, i] { results[i] = service.Rerank(requests_[i]); });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (size_t i = 0; i < requests_.size(); ++i) {
    EXPECT_EQ(results[i].topk, reference[i].topk) << "request " << i;
    EXPECT_EQ(results[i].scores, reference[i].scores) << "request " << i;
  }
}

// The carousel equivalence net (ISSUE 4): a seeded multi-client run with
// mixed priorities, deadlines, and staggered arrivals through the carousel
// scheduler must produce, for every served request, a result bit-identical
// to the SerialScheduler's for the same request. Deadlined requests may
// legitimately be shed instead — but then they must carry exactly
// kDeadlineExceeded and no ranking. CI's concurrency-stress lane fails if
// this test is skipped.
TEST_F(ServiceConcurrencyTest, CarouselServiceMatchesSerialBitIdentically) {
  constexpr size_t kRequests = 18;
  Rng rng(0xCA805E1u);
  std::vector<RerankRequest> requests;
  requests.reserve(kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    requests.push_back(TestRequest(config_, 8 + rng.NextBelow(6), 2 + rng.NextBelow(3), i));
    requests.back().priority = static_cast<int>(rng.NextBelow(3)) - 1;
    if (i % 5 == 4) {
      // A generous deadline: long enough to be served on a sane host, but a
      // legitimate shed (kDeadlineExceeded, empty topk) is also accepted.
      requests.back().deadline_ms = 2000.0;
    }
  }

  // Serial reference (no deadlines so every reference result is served).
  std::vector<RerankResult> reference(requests.size());
  {
    MemoryTracker tracker;
    ServiceOptions options;
    options.engine.device = FastDevice();
    RerankService serial(config_, ckpt_, options, &tracker);
    for (size_t i = 0; i < requests.size(); ++i) {
      RerankRequest plain = requests[i];
      plain.deadline_ms = 0.0;
      reference[i] = serial.Rerank(plain);
    }
  }

  MemoryTracker tracker;
  ServiceOptions options;
  options.engine.device = FastDevice();
  options.scheduler = SchedulerKind::kCarousel;
  options.max_inflight = 4;
  options.compute_threads = 4;
  RerankService service(config_, ckpt_, options, &tracker);

  std::vector<RerankResult> results(requests.size());
  std::vector<std::thread> clients;
  clients.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back([&, i] {
      // Staggered arrivals: later clients reach the queue while the carousel
      // is mid-cycle, exercising boundary admission.
      std::this_thread::sleep_for(std::chrono::microseconds(200 * i));
      results[i] = service.Rerank(requests[i]);
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  size_t served = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (results[i].status.ok()) {
      ++served;
      EXPECT_EQ(results[i].topk, reference[i].topk) << "request " << i;
      EXPECT_EQ(results[i].scores, reference[i].scores) << "request " << i;
      EXPECT_EQ(results[i].stats.layers_until_done, reference[i].stats.layers_until_done)
          << "request " << i;
    } else {
      EXPECT_EQ(results[i].status.code(), StatusCode::kDeadlineExceeded) << "request " << i;
      EXPECT_TRUE(results[i].topk.empty()) << "request " << i;
    }
  }
  EXPECT_GT(served, 0u);

  const auto& carousel = dynamic_cast<const CarouselScheduler&>(service.scheduler());
  const CarouselScheduler::Stats stats = carousel.stats();
  EXPECT_EQ(stats.admitted, served);
  EXPECT_GE(stats.cycles, stats.passes);
}

// Admission latency: a request that arrives while the carousel is busy is
// admitted at the next layer-0 boundary — it waits at most one cycle
// interval, not a full pass. Measured in boundary units (admission-event
// counts through the queue's race-free epoch protocol), so the assertion is
// immune to wall-clock noise: with free capacity every request sees exactly
// one admission event between enqueue and admission.
TEST_F(ServiceConcurrencyTest, CarouselAdmitsWithinOneCycleBoundary) {
  MemoryTracker tracker;
  ServiceOptions options;
  options.engine.device = FastDevice();
  options.scheduler = SchedulerKind::kCarousel;
  options.max_inflight = 8;  // More slots than clients: capacity never binds.
  options.compute_threads = 4;
  RerankService service(config_, ckpt_, options, &tracker);

  constexpr size_t kClients = 6;
  std::vector<RerankResult> results(kClients);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(300 * i));
      results[i] = service.Rerank(requests_[i % requests_.size()]);
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(results[i].status.ok()) << "request " << i;
    EXPECT_GE(results[i].stats.queue_wait_ms, 0.0) << "request " << i;
  }
  const auto& carousel = dynamic_cast<const CarouselScheduler&>(service.scheduler());
  EXPECT_LE(carousel.stats().max_boundary_wait, 1u);
  EXPECT_EQ(carousel.stats().admitted, kClients);
}

TEST_F(ServiceConcurrencyTest, StatsAggregateUnderConcurrency) {
  MemoryTracker tracker;
  RerankService service(config_, ckpt_, ConcurrentOptions(4), &tracker);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 3;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        service.Rerank(requests_[(t * kPerThread + i) % requests_.size()]);
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_GT(stats.total_candidates, 0);
}

TEST_F(ServiceConcurrencyTest, ThresholdNudgesAreSafeWhileServing) {
  // The OnlineCalibrator adjusts the dispersion threshold while requests are
  // in flight; the engine stores it atomically. Run a writer thread against
  // concurrent engine-level requests (TSan validates the absence of races).
  MemoryTracker tracker;
  PrismOptions options;
  options.device = FastDevice();
  PrismEngine engine(config_, ckpt_, options, &tracker);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    float threshold = 0.05f;
    while (!stop.load()) {
      engine.set_dispersion_threshold(threshold);
      threshold = threshold >= 1.0f ? 0.05f : threshold * 1.1f;
    }
  });
  std::vector<std::thread> clients;
  for (size_t i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      for (size_t r = 0; r < 4; ++r) {
        const RerankResult result = engine.Rerank(requests_[(i + r) % requests_.size()]);
        EXPECT_EQ(result.topk.size(), 3u);
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(engine.dispersion_threshold(), 0.0f);
}

TEST_F(ServiceConcurrencyTest, OnIdleOverlapsServingSafely) {
  // The calibrator's sample log is mutex-guarded, so an idle-cycle thread
  // may run while serving threads push samples, on either scheduler: one
  // request at a time (max_inflight 1) or several riding the carousel at
  // once. TSan validates the locking.
  for (const size_t max_inflight : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("max_inflight " + std::to_string(max_inflight));
    MemoryTracker tracker;
    ServiceOptions options = ConcurrentOptions(max_inflight);
    options.online_calibration = true;
    options.calibration.sample_every = 1;
    RerankService service(config_, ckpt_, options, &tracker);
    std::atomic<bool> stop{false};
    std::thread idler([&] {
      while (!stop.load()) {
        service.OnIdle();
      }
    });
    std::vector<std::thread> clients;
    for (size_t c = 0; c < 2; ++c) {
      clients.emplace_back([&, c] {
        for (size_t r = 0; r < 4; ++r) {
          const RerankResult result = service.Rerank(requests_[(c * 4 + r) % requests_.size()]);
          EXPECT_EQ(result.topk.size(), 3u);
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    stop.store(true);
    idler.join();
    EXPECT_EQ(service.stats().requests, 8u);
  }
}

// Online calibration on the carousel, in phases. The carousel reads the
// threshold once per ticket, at admission, and the calibrator only samples
// answered requests, so every result served between two idle cycles must be
// bit-identical to a serial engine pinned at the threshold of that phase.
// CI's concurrency-stress lane fails if this test is skipped.
TEST_F(ServiceConcurrencyTest, CalibratingCarouselMatchesSerialAtEachThreshold) {
  MemoryTracker tracker;
  ServiceOptions options = ConcurrentOptions(3);
  options.engine.dispersion_threshold = 0.3f;
  options.online_calibration = true;
  options.calibration.sample_every = 1;
  options.calibration.target_precision = 1.01;  // Unreachable: each idle cycle raises.
  RerankService service(config_, ckpt_, options, &tracker);
  ASSERT_NE(dynamic_cast<const CarouselScheduler*>(&service.scheduler()), nullptr);

  // Serves every request from its own client thread and counts the results
  // that differ from a serial engine at `threshold`.
  const auto mismatches_at = [&](float threshold) {
    std::vector<RerankResult> results(requests_.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < requests_.size(); ++i) {
      clients.emplace_back([&, i] { results[i] = service.Rerank(requests_[i]); });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    MemoryTracker serial_tracker;
    PrismOptions serial_options = options.engine;
    serial_options.dispersion_threshold = threshold;
    PrismEngine serial(config_, ckpt_, serial_options, &serial_tracker);
    size_t mismatches = 0;
    for (size_t i = 0; i < requests_.size(); ++i) {
      const RerankResult expected = serial.Rerank(requests_[i]);
      EXPECT_TRUE(results[i].status.ok()) << "request " << i;
      const bool same = results[i].topk == expected.topk &&
                        results[i].scores.size() == expected.scores.size() &&
                        std::memcmp(results[i].scores.data(), expected.scores.data(),
                                    expected.scores.size() * sizeof(float)) == 0 &&
                        results[i].stats.layers_until_done == expected.stats.layers_until_done;
      mismatches += same ? 0 : 1;
    }
    return mismatches;
  };

  const float start = service.current_threshold();
  EXPECT_EQ(mismatches_at(start), 0u) << "threshold " << start;
  EXPECT_EQ(service.calibrator()->pending_samples(), requests_.size());

  EXPECT_FALSE(std::isnan(service.OnIdle()));
  const float raised = service.current_threshold();
  EXPECT_GT(raised, start);
  EXPECT_EQ(mismatches_at(raised), 0u) << "threshold " << raised;
  // The nudge must move some selection, or the second phase proves nothing.
  EXPECT_GT(mismatches_at(start), 0u);
}

TEST_F(ServiceConcurrencyTest, CalibrationSamplesOnlyServedResults) {
  // A shed or malformed request carries no top-K: logged, it would score 0
  // agreement and push the threshold up for no reason.
  MemoryTracker tracker;
  ServiceOptions options = ConcurrentOptions(2);
  options.online_calibration = true;
  options.calibration.sample_every = 1;
  RerankService service(config_, ckpt_, options, &tracker);
  const OnlineCalibrator& calibrator = *service.calibrator();
  ASSERT_TRUE(service.Rerank(requests_[0]).status.ok());
  EXPECT_EQ(calibrator.pending_samples(), 1u);

  RerankRequest doomed = requests_[1];
  doomed.deadline_ms = 1e-6;  // Expired by the time the dispatcher drains it.
  ASSERT_EQ(service.Rerank(doomed).status.code(), StatusCode::kDeadlineExceeded);
  RerankRequest malformed = requests_[2];
  malformed.k = 0;
  ASSERT_EQ(service.Rerank(malformed).status.code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(calibrator.pending_samples(), 1u);
  EXPECT_EQ(calibrator.requests_served(), 1u);
}

// A runner that just sleeps: lets the shed tests hold a scheduler busy for
// a known duration without an engine. Its carousel pass has one layer, and
// stepping it sleeps once for the whole group.
class SleepyRunner : public CarouselRunner {
 public:
  explicit SleepyRunner(double sleep_ms) : sleep_ms_(sleep_ms) {}

  RerankResult Rerank(const RerankRequest& request) override {
    Sleep();
    return Served(request);
  }

  std::unique_ptr<CarouselPass> BeginCarousel() override {
    return std::make_unique<SleepyPass>(this);
  }

  std::string name() const override { return "sleepy"; }

 private:
  class SleepyTicket : public CarouselTicket {
   public:
    explicit SleepyTicket(RerankResult result) : result_(std::move(result)) {}
    size_t next_layer() const override { return 0; }
    bool done() const override { return done_; }
    RerankResult TakeResult() override { return std::move(result_); }
    void Finish() { done_ = true; }

   private:
    RerankResult result_;
    bool done_ = false;
  };

  class SleepyPass : public CarouselPass {
   public:
    explicit SleepyPass(SleepyRunner* runner) : runner_(runner) {}
    size_t n_layers() const override { return 1; }
    std::vector<std::unique_ptr<CarouselTicket>> AdmitBatch(
        std::span<const RerankRequest* const> requests, ThreadPool* /*compute_pool*/) override {
      std::vector<std::unique_ptr<CarouselTicket>> tickets;
      for (const RerankRequest* request : requests) {
        tickets.push_back(std::make_unique<SleepyTicket>(Served(*request)));
      }
      return tickets;
    }
    void Step(size_t /*layer*/, std::span<CarouselTicket* const> group,
              ThreadPool* /*compute_pool*/) override {
      runner_->Sleep();
      for (CarouselTicket* ticket : group) {
        static_cast<SleepyTicket*>(ticket)->Finish();
      }
    }
    void SkipToNextCycle() override {}

   private:
    SleepyRunner* runner_;
  };

  static RerankResult Served(const RerankRequest& request) {
    RerankResult result;
    result.topk.resize(std::min(request.k, request.docs.size()));
    return result;
  }

  void Sleep() const {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(sleep_ms_));
  }

  double sleep_ms_;
};

TEST(ShedQueueWaitTest, MakeShedResultCarriesQueueWait) {
  // A shed request's entire life was queue wait; the result must say so.
  const RerankResult shed = MakeShedResult(/*deadline_ms=*/5.0, /*waited_ms=*/7.5);
  EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(shed.stats.queue_wait_ms, 7.5);
  EXPECT_DOUBLE_EQ(shed.stats.latency_ms, 7.5);
}

TEST(ShedQueueWaitTest, SerialSchedulerInlineShedCarriesWait) {
  // The serial scheduler sheds inline, at mutex acquisition: a request with
  // an (effectively) 0 ms deadline that queued behind a slow one must
  // report the time it spent waiting, not 0.
  SleepyRunner runner(80.0);
  SerialScheduler scheduler(&runner);
  RerankRequest slow;
  std::thread holder([&] { scheduler.Submit(slow); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // Holder owns the mutex.
  RerankRequest tight;
  tight.deadline_ms = 0.01;
  const RerankResult shed = scheduler.Submit(tight);
  holder.join();
  ASSERT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(shed.stats.queue_wait_ms, 0.0);
  // It waited at least the remainder of the holder's 80 ms pass.
  EXPECT_GE(shed.stats.queue_wait_ms, 10.0);
}

// Charges every request 10 ms of virtual time and logs which client it
// served, in service order.
class VirtualServiceRunner : public Runner {
 public:
  VirtualServiceRunner(Clock* clock, std::vector<const RerankRequest*> clients)
      : clock_(clock), clients_(std::move(clients)) {}

  RerankResult Rerank(const RerankRequest& request) override {
    const auto it = std::find(clients_.begin(), clients_.end(), &request);
    PRISM_CHECK(it != clients_.end());
    {
      MutexLock lock(mu_);
      order_.push_back(static_cast<size_t>(it - clients_.begin()));
    }
    clock_->SleepFor(10.0);
    return RerankResult();
  }
  std::string name() const override { return "virtual-service"; }

  std::vector<size_t> order() const {
    MutexLock lock(mu_);
    return order_;
  }

 private:
  Clock* clock_;
  std::vector<const RerankRequest*> clients_;
  mutable Mutex mu_;
  std::vector<size_t> order_ PRISM_GUARDED_BY(mu_);
};

TEST(SerialSchedulerTest, ClosedLoopClientsAreServedRoundRobin) {
  // Eight closed-loop clients with no think time: each resubmits the moment
  // its request returns. A barging handoff lets the client that just
  // finished re-take the runner before the waiter it woke can run; the
  // ticketed handoff queues it behind everyone, so no client's (k+2)-th
  // request runs before every other client's k-th.
  constexpr size_t kClients = 8;
  constexpr size_t kRequestsEach = 6;
  SimClock clock;
  std::vector<RerankRequest> requests(kClients);
  std::vector<const RerankRequest*> clients;
  for (const RerankRequest& request : requests) {
    clients.push_back(&request);
  }
  VirtualServiceRunner runner(&clock, clients);
  SerialScheduler scheduler(&runner, &clock);
  const uint64_t first = clock.ExpectParticipants(kClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const ClockMembership membership(&clock, first + c);
      for (size_t i = 0; i < kRequestsEach; ++i) {
        EXPECT_TRUE(scheduler.Submit(requests[c]).status.ok());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const std::vector<size_t> order = runner.order();
  ASSERT_EQ(order.size(), kClients * kRequestsEach);
  std::vector<size_t> started(kClients, 0);
  for (size_t at = 0; at < order.size(); ++at) {
    const size_t k = ++started[order[at]];
    for (size_t other = 0; other < kClients; ++other) {
      EXPECT_GE(started[other] + 2, k)
          << "client " << order[at] << " started request " << k << " at position " << at
          << " before client " << other << " started request " << k - 2;
    }
  }
  // Served back to back: 48 requests of 10 virtual ms each.
  EXPECT_DOUBLE_EQ(clock.NowMs(), 10.0 * kClients * kRequestsEach);
}

TEST(ShedQueueWaitTest, RequestQueueShedCarriesWait) {
  // Carousel shed path: an expired entry answered by the queue's expiry
  // sweep reports its full queue residence as queue wait.
  SleepyRunner runner(80.0);
  CarouselScheduler scheduler(&runner, /*max_inflight=*/1, /*compute_threads=*/1);
  RerankRequest slow;
  std::thread first([&] { scheduler.Submit(slow); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // Dispatcher is busy.
  RerankRequest tight;
  tight.deadline_ms = 0.01;
  const RerankResult shed = scheduler.Submit(tight);
  first.join();
  ASSERT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GT(shed.stats.queue_wait_ms, 0.0);
  EXPECT_DOUBLE_EQ(shed.stats.queue_wait_ms, shed.stats.latency_ms);
}

}  // namespace
}  // namespace prism
