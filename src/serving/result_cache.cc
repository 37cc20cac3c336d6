#include "src/serving/result_cache.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/scheduler.h"

namespace prism {
namespace {

// Gap between consecutive coalesced-waiter releases after a fill completes.
// Small enough to be latency-noise, large enough that a SimClock schedules
// each waiter at its own virtual instant (see the header's single-flight
// note): waiter i resumes alone, finishes its turn on any shared queues, and
// blocks before waiter i+1 becomes runnable.
constexpr double kCoalesceStaggerMs = 1e-3;

// Two different-key fills can finish at the same instant — a scheduler shed
// drain answers several queued leaders in one pop — and each fill's waiters
// count slots from 0, so slot staggering alone would release one waiter per
// fill at the same instant. A per-key phase (a pure function of the key
// hash, so it needs no cross-thread state) keeps cross-fill releases on
// distinct instants too; the bucket count is prime and the phase range stays
// below one slot so same-fill slot order is preserved.
constexpr double kFillPhaseMs = 1e-6;
constexpr uint64_t kFillPhaseBuckets = 509;

// A cached result re-served to a new caller: ranking is the engine's, but
// the timing belongs to the original fill, not this request — scrub it so
// workload latency stats measure this caller's experience (cache residence),
// and so no cached bytes are double-counted as device traffic.
RerankResult ServeCopy(const RerankResult& cached, double waited_ms) {
  RerankResult result = cached;
  result.stats = RerankStats{};
  result.stats.latency_ms = waited_ms;
  result.stats.queue_wait_ms = waited_ms;
  return result;
}

}  // namespace

uint64_t QueryHash(const RerankRequest& request) {
  uint64_t hash = 0x9E3779B97F4A7C15ULL;
  for (uint32_t token : request.query) {
    hash = MixSeed(hash, token);
  }
  return hash;
}

ResultCache::ResultCache(Runner* inner, ResultCacheOptions options)
    : inner_(inner),
      options_(options),
      clock_(ResolveClock(options.clock)),
      cv_(clock_->MakeCondVar()) {
  options_.capacity = std::max<size_t>(options_.capacity, 1);
}

ResultCache::Key ResultCache::MakeKey(const RerankRequest& request) {
  return Key{request.query, request.docs, request.planted_r, request.k};
}

bool ResultCache::Key::Matches(const RerankRequest& request) const {
  return k == request.k && query == request.query && docs == request.docs &&
         planted_r == request.planted_r;
}

void ResultCache::InsertLocked(uint64_t hash, Key key, const RerankResult& result) {
  // Only a fill leader inserts, and its in-flight fill kept the hash free of
  // any other entry or fill since its lookup missed.
  PRISM_CHECK(map_.find(hash) == map_.end());
  while (lru_.size() >= options_.capacity) {
    counters_.evicted.Add(1);
    map_.erase(lru_.back().hash);
    lru_.pop_back();
  }
  lru_.push_front(Entry{hash, std::move(key), ServeCopy(result, 0.0)});
  map_[hash] = lru_.begin();
}

RerankResult ResultCache::Rerank(const RerankRequest& request) {
  const uint64_t hash = QueryHash(request);
  const double enter_ms = clock_->NowMs();
  mu_.Lock();
  counters_.lookups.Add(1);
  bool parked = false;  // Did we ever wait behind another caller's fill?
  for (;;) {
    const double now_ms = clock_->NowMs();
    auto it = map_.find(hash);
    if (it != map_.end()) {
      const Entry& entry = *it->second;
      if (entry.key.Matches(request)) {
        if (parked) {
          counters_.coalesced.Add(1);
        } else {
          counters_.hits.Add(1);
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        RerankResult served = ServeCopy(entry.result, now_ms - enter_ms);
        mu_.Unlock();
        return served;
      } else {
        // Hash collision with a different resident key: treat as an
        // uncacheable miss (forward without filling) rather than fight the
        // resident entry for the slot.
        counters_.misses.Add(1);
        mu_.Unlock();
        return inner_->Rerank(request);
      }
    }

    auto fill_it = fills_.find(hash);
    if (fill_it == fills_.end()) {
      // No fill in flight: we lead one — unless we burned our whole
      // budget parked behind a fill that then failed.
      if (parked && request.deadline_ms > 0.0 && now_ms - enter_ms >= request.deadline_ms) {
        counters_.shed_waiting.Add(1);
        mu_.Unlock();
        return MakeShedResult(request.deadline_ms, now_ms - enter_ms);
      }
      break;
    }
    if (!fill_it->second->key.Matches(request)) {
      // A *different* key's fill owns this hash; don't coalesce onto a
      // result that isn't ours — forward directly, uncached.
      counters_.misses.Add(1);
      mu_.Unlock();
      return inner_->Rerank(request);
    }
    // Park behind the leader. Honor our own deadline: a waiter whose budget
    // expires mid-fill sheds with its true cache residence, exactly like a
    // request aging out of a scheduler queue.
    parked = true;
    const std::shared_ptr<FillState> fill = fill_it->second;
    const size_t slot = fill->parked++;
    if (request.deadline_ms > 0.0) {
      const double give_up_ms = enter_ms + request.deadline_ms;
      while (!fill->done) {
        if (!cv_->WaitUntil(mu_, give_up_ms)) {
          break;  // Budget exhausted; the post-check below decides.
        }
      }
      if (!fill->done) {
        counters_.shed_waiting.Add(1);
        const double waited_ms = clock_->NowMs() - enter_ms;
        mu_.Unlock();
        return MakeShedResult(request.deadline_ms, waited_ms);
      }
    } else {
      while (!fill->done) {
        cv_->Wait(mu_);
      }
    }
    // Staggered release (header note): every waiter woke at the fill's
    // completion instant; re-sleep to a slot of our own so waiters resume
    // one at a time, in park order.
    const double release_ms =
        fill->done_ms + kCoalesceStaggerMs * static_cast<double>(slot + 1) +
        kFillPhaseMs * static_cast<double>(hash % kFillPhaseBuckets + 1);
    mu_.Unlock();
    clock_->SleepUntil(release_ms);
    mu_.Lock();
    // Loop: re-probe the map. If the leader succeeded we coalesce onto its
    // entry; if it failed (fill gone, no entry) we compete to lead anew.
  }

  // Miss: lead a fill. The lock is dropped across the inner pass so the
  // cache never serializes distinct queries.
  counters_.misses.Add(1);
  auto fill = std::make_shared<FillState>();
  fill->key = MakeKey(request);
  fills_.emplace(hash, fill);
  mu_.Unlock();

  RerankResult result = inner_->Rerank(request);

  mu_.Lock();
  const double done_ms = clock_->NowMs();
  if (result.status.ok()) {
    InsertLocked(hash, MakeKey(request), result);
  } else {
    counters_.fill_errors.Add(1);
  }
  // Success or failure, publish completion and release the key: waiters
  // coalesce onto the fresh entry, or — after a failed fill — the first
  // released waiter leads its own fill. An error never poisons the key,
  // and the leader's error surfaces only to its own caller.
  fill->done = true;
  fill->done_ms = done_ms;
  fills_.erase(hash);
  cv_->NotifyAll();
  mu_.Unlock();
  return result;
}

ResultCacheStats ResultCache::stats() const {
  // Lock-free read of the counter cells. A snapshot, not a linearizable
  // total: a request mid-flight may show its lookup but not yet its
  // hit/miss outcome (HitRate momentarily undercounts, never divides by a
  // stale zero).
  ResultCacheStats stats;
  stats.lookups = static_cast<size_t>(counters_.lookups.Load());
  stats.hits = static_cast<size_t>(counters_.hits.Load());
  stats.coalesced = static_cast<size_t>(counters_.coalesced.Load());
  stats.shed_waiting = static_cast<size_t>(counters_.shed_waiting.Load());
  stats.misses = static_cast<size_t>(counters_.misses.Load());
  stats.fill_errors = static_cast<size_t>(counters_.fill_errors.Load());
  stats.evicted = static_cast<size_t>(counters_.evicted.Load());
  return stats;
}

size_t ResultCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

}  // namespace prism
