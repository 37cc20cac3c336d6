// ResultCache: the exact-key result-cache tier (src/serving/result_cache.h).
// Load-bearing properties, pinned on a SimClock where timing matters: a
// cache of capacity N holds N distinct requests (two that share a query are
// two entries), LRU eviction follows recency order, single-flight coalesces
// concurrent identical queries onto one inner pass, a failed fill neither
// poisons its key nor wedges its waiters, and a waiter whose deadline
// expires while parked sheds with its true residence.
// Also a ThreadSanitizer target: many client threads share one cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/serving/result_cache.h"
#include "src/runtime/runner.h"

namespace prism {
namespace {

RerankRequest MakeRequest(uint32_t id, size_t k = 2) {
  RerankRequest request;
  request.query = {id, id + 1};
  request.docs = {{id}, {id + 10}, {id + 20}};
  request.k = k;
  return request;
}

// Inner runner with a scripted per-call outcome: counts calls, optionally
// charges virtual service time on a clock, and fails calls whose index is in
// `fail_calls`. Thread-safe.
class ScriptedRunner : public Runner {
 public:
  explicit ScriptedRunner(Clock* clock = nullptr, double service_ms = 0.0)
      : clock_(ResolveClock(clock)), service_ms_(service_ms) {}

  RerankResult Rerank(const RerankRequest& request) override {
    const size_t call = calls_.fetch_add(1);
    if (service_ms_ > 0.0) {
      clock_->SleepFor(service_ms_);
    }
    RerankResult result;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t fail : fail_calls_) {
        if (fail == call) {
          result.status = Status(StatusCode::kIoError, "injected");
          return result;
        }
      }
    }
    // Deterministic ranking derived from the request so distinct keys get
    // distinct cached payloads.
    for (size_t i = 0; i < std::min(request.k, request.docs.size()); ++i) {
      result.topk.push_back((request.query[0] + i) % request.docs.size());
      result.scores.push_back(static_cast<float>(request.query[0] + i));
    }
    result.stats.latency_ms = service_ms_;
    return result;
  }

  std::string name() const override { return "scripted"; }

  size_t calls() const { return calls_.load(); }
  void FailCall(size_t call) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_calls_.push_back(call);
  }

 private:
  Clock* clock_;
  double service_ms_;
  std::atomic<size_t> calls_{0};
  std::mutex mu_;
  std::vector<size_t> fail_calls_;
};

TEST(ResultCacheTest, ExactHitReturnsCachedRankingWithScrubbedTiming) {
  ScriptedRunner inner;
  ResultCacheOptions options;
  options.capacity = 8;
  ResultCache cache(&inner, options);
  const RerankRequest request = MakeRequest(3);

  const RerankResult first = cache.Rerank(request);
  const RerankResult second = cache.Rerank(request);
  EXPECT_EQ(inner.calls(), 1u);
  EXPECT_TRUE(second.status.ok());
  EXPECT_EQ(second.topk, first.topk);
  EXPECT_EQ(second.scores, first.scores);
  // The hit's timing belongs to this caller (an immediate hit waited ~0),
  // not to the original fill.
  EXPECT_EQ(second.stats.bytes_streamed, 0);

  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyTouchedFirst) {
  ScriptedRunner inner;
  ResultCacheOptions options;
  options.capacity = 2;
  ResultCache cache(&inner, options);

  cache.Rerank(MakeRequest(0));  // Fill A.
  cache.Rerank(MakeRequest(1));  // Fill B. LRU order: B, A.
  cache.Rerank(MakeRequest(0));  // Hit A. LRU order: A, B.
  cache.Rerank(MakeRequest(2));  // Fill C evicts B (least recent).
  EXPECT_EQ(cache.stats().evicted, 1u);

  const size_t calls_before = inner.calls();
  cache.Rerank(MakeRequest(0));  // A survived the eviction.
  cache.Rerank(MakeRequest(2));  // C is resident.
  EXPECT_EQ(inner.calls(), calls_before);
  cache.Rerank(MakeRequest(1));  // B was evicted: a fresh inner pass.
  EXPECT_EQ(inner.calls(), calls_before + 1);
}

TEST(ResultCacheTest, CapacityHoldsThatManyDistinctKeys) {
  // Every key of a universe no larger than the capacity stays resident: a
  // second pass over it makes no inner call, whatever the keys hash to.
  ScriptedRunner inner;
  ResultCacheOptions options;
  options.capacity = 8;
  ResultCache cache(&inner, options);
  for (uint32_t id = 0; id < 8; ++id) {
    cache.Rerank(MakeRequest(id));
  }
  EXPECT_EQ(inner.calls(), 8u);
  EXPECT_EQ(cache.size(), 8u);
  for (uint32_t id = 0; id < 8; ++id) {
    cache.Rerank(MakeRequest(id));
  }
  EXPECT_EQ(inner.calls(), 8u);
  EXPECT_EQ(cache.stats().hits, 8u);
  EXPECT_EQ(cache.stats().evicted, 0u);

  // Eight more distinct keys push out exactly the first eight.
  for (uint32_t id = 8; id < 16; ++id) {
    cache.Rerank(MakeRequest(id));
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evicted, 8u);
}

// The agent-memory step shape: one task description reranked against a
// changed candidate relevance.
RerankRequest WithPlantedR(RerankRequest request, float r) {
  request.planted_r.assign(request.docs.size(), r);
  return request;
}

TEST(ResultCacheTest, SharedQueryWithDifferentCandidatesIsTwoEntries) {
  ScriptedRunner inner;
  ResultCacheOptions options;
  options.capacity = 2;
  ResultCache cache(&inner, options);
  const RerankRequest a = WithPlantedR(MakeRequest(5), 0.0f);
  const RerankRequest b = WithPlantedR(MakeRequest(5), 1.0f);

  for (const RerankRequest* request : {&a, &b, &a, &b}) {
    EXPECT_TRUE(cache.Rerank(*request).status.ok());
  }
  EXPECT_EQ(inner.calls(), 2u);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, SharedQueryArrivingMidFillLeadsItsOwnFill) {
  SimClock clock;
  ScriptedRunner inner(&clock, /*service_ms=*/10.0);
  ResultCacheOptions options;
  options.capacity = 2;
  options.clock = &clock;
  ResultCache cache(&inner, options);
  const RerankRequest a = WithPlantedR(MakeRequest(5), 0.0f);
  const RerankRequest b = WithPlantedR(MakeRequest(5), 1.0f);

  const uint64_t slot = clock.ExpectParticipants(2);
  std::thread first([&] {
    const ClockMembership membership(&clock, slot);
    EXPECT_TRUE(cache.Rerank(a).status.ok());  // Fills from t = 0 to t = 10.
  });
  std::thread second([&] {
    const ClockMembership membership(&clock, slot + 1);
    clock.SleepUntil(1.0);  // Arrive while a's fill is in flight.
    EXPECT_TRUE(cache.Rerank(b).status.ok());
  });
  first.join();
  second.join();

  // b is no follower of a's fill: it led its own, and both stay resident.
  EXPECT_EQ(inner.calls(), 2u);
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(cache.size(), 2u);
  cache.Rerank(a);
  cache.Rerank(b);
  EXPECT_EQ(inner.calls(), 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(ResultCacheTest, SingleFlightCoalescesConcurrentIdenticalQueries) {
  SimClock clock;
  ScriptedRunner inner(&clock, /*service_ms=*/10.0);
  ResultCacheOptions options;
  options.capacity = 4;
  options.clock = &clock;
  ResultCache cache(&inner, options);
  const RerankRequest request = MakeRequest(2);

  constexpr size_t kClients = 4;
  const uint64_t first = clock.ExpectParticipants(kClients);
  std::mutex mu;
  std::vector<RerankResult> results;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const ClockMembership membership(&clock, first + c);
      RerankResult result = cache.Rerank(request);
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(std::move(result));
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // One engine pass served all four callers, every ranking identical.
  EXPECT_EQ(inner.calls(), 1u);
  ASSERT_EQ(results.size(), kClients);
  for (const RerankResult& result : results) {
    EXPECT_TRUE(result.status.ok());
    EXPECT_EQ(result.topk, results[0].topk);
  }
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, kClients);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, kClients - 1);
  EXPECT_DOUBLE_EQ(static_cast<double>(stats.coalesced) / static_cast<double>(stats.lookups),
                   static_cast<double>(kClients - 1) / static_cast<double>(kClients));
}

TEST(ResultCacheTest, FailedFillNeitherPoisonsTheKeyNorWedgesWaiters) {
  SimClock clock;
  ScriptedRunner inner(&clock, /*service_ms=*/5.0);
  inner.FailCall(0);  // Whoever leads the first fill gets an IO error.
  ResultCacheOptions options;
  options.capacity = 4;
  options.clock = &clock;
  ResultCache cache(&inner, options);
  const RerankRequest request = MakeRequest(6);

  const uint64_t first = clock.ExpectParticipants(2);
  std::mutex mu;
  std::vector<RerankResult> results;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      const ClockMembership membership(&clock, first + c);
      RerankResult result = cache.Rerank(request);
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(std::move(result));
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // The leader's error surfaced to its own caller only; the parked waiter
  // re-led a fresh fill and was served. Two inner passes total.
  EXPECT_EQ(inner.calls(), 2u);
  ASSERT_EQ(results.size(), 2u);
  size_t ok_count = 0;
  for (const RerankResult& result : results) {
    if (result.status.ok()) {
      ++ok_count;
    } else {
      EXPECT_EQ(result.status.code(), StatusCode::kIoError);
    }
  }
  EXPECT_EQ(ok_count, 1u);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.fill_errors, 1u);
  EXPECT_EQ(stats.misses, 2u);

  // The key is not poisoned: the successful refill serves hits.
  EXPECT_TRUE(cache.Rerank(request).status.ok());
  EXPECT_EQ(inner.calls(), 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ResultCacheTest, DeadlineExpiringWhileParkedShedsWithTrueResidence) {
  SimClock clock;
  ScriptedRunner inner(&clock, /*service_ms=*/20.0);
  ResultCacheOptions options;
  options.capacity = 4;
  options.clock = &clock;
  ResultCache cache(&inner, options);

  const uint64_t slot = clock.ExpectParticipants(2);
  RerankResult waiter_result;
  std::thread leader([&] {
    const ClockMembership membership(&clock, slot);
    // Leads the fill at t = 0; the inner pass runs until t = 20.
    EXPECT_TRUE(cache.Rerank(MakeRequest(4)).status.ok());
  });
  std::thread waiter([&] {
    const ClockMembership membership(&clock, slot + 1);
    clock.SleepUntil(1.0);  // Park strictly after the leader's fill starts.
    RerankRequest request = MakeRequest(4);
    request.deadline_ms = 5.0;
    waiter_result = cache.Rerank(request);
  });
  leader.join();
  waiter.join();

  // The waiter's budget ran out at exactly t = 1 + 5, long before the fill
  // finished: it shed with its true parked residence.
  EXPECT_EQ(waiter_result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(waiter_result.stats.latency_ms, 5.0);
  EXPECT_DOUBLE_EQ(waiter_result.stats.queue_wait_ms, 5.0);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.shed_waiting, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
}

TEST(ResultCacheTest, ConcurrentMixedTrafficKeepsCountersConsistent) {
  // Wall-clock stress for the TSan lane: many threads, overlapping keys,
  // evictions racing hits and fills. Counters must balance exactly.
  ScriptedRunner inner;
  ResultCacheOptions options;
  options.capacity = 8;
  ResultCache cache(&inner, options);

  constexpr size_t kThreads = 8;
  constexpr size_t kIterations = 200;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kIterations; ++i) {
        const uint32_t id = static_cast<uint32_t>((t + i) % 12);
        const RerankResult result = cache.Rerank(MakeRequest(id));
        EXPECT_TRUE(result.status.ok());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, kThreads * kIterations);
  // Every lookup is accounted in exactly one outcome bucket.
  EXPECT_EQ(stats.hits + stats.coalesced + stats.shed_waiting + stats.misses, stats.lookups);
  EXPECT_EQ(stats.fill_errors, 0u);
  EXPECT_LE(cache.size(), 8u);
}

}  // namespace
}  // namespace prism
