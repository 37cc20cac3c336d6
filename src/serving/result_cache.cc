#include "src/serving/result_cache.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/core/scheduler.h"

namespace prism {
namespace {

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

ResultCache::ResultCache(Runner* inner, ResultCacheOptions options)
    : inner_(inner),
      options_(options),
      clock_(ResolveClock(options.clock)),
      cv_(clock_->MakeCondVar()) {
  options_.capacity = std::max<size_t>(options_.capacity, 1);
}

void ResultCache::InsertLocked(RequestKey key, const RerankResult& result) {
  // Only a fill leader inserts, and its in-flight fill kept the key free of
  // any other entry since its lookup missed.
  PRISM_CHECK(map_.find(key) == map_.end());
  while (lru_.size() >= options_.capacity) {
    ++stats_.evicted;
    map_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Entry{key, ServeCopy(result, 0.0)});
  map_.emplace(std::move(key), lru_.begin());
}

RerankResult ResultCache::Rerank(const RerankRequest& request) {
  RequestKey key(request);
  const double enter_ms = clock_->NowMs();
  mu_.Lock();
  ++stats_.lookups;
  bool parked = false;  // Did we ever wait behind another caller's fill?
  for (;;) {
    const double now_ms = clock_->NowMs();
    auto it = map_.find(key);
    if (it != map_.end()) {
      if (parked) {
        ++stats_.coalesced;
      } else {
        ++stats_.hits;
      }
      lru_.splice(lru_.begin(), lru_, it->second);
      RerankResult served = ServeCopy(it->second->result, now_ms - enter_ms);
      mu_.Unlock();
      return served;
    }

    auto fill_it = fills_.find(key);
    if (fill_it == fills_.end()) {
      // No fill in flight: we lead one — unless we burned our whole
      // budget parked behind a fill that then failed.
      if (parked && request.deadline_ms > 0.0 && now_ms - enter_ms >= request.deadline_ms) {
        ++stats_.shed_waiting;
        mu_.Unlock();
        return MakeShedResult(request.deadline_ms, now_ms - enter_ms);
      }
      break;
    }
    // Park behind the leader. Honor our own deadline: a waiter whose budget
    // expires mid-fill sheds with its true cache residence, exactly like a
    // request aging out of a scheduler queue.
    parked = true;
    const std::shared_ptr<FillState> fill = fill_it->second;
    if (request.deadline_ms > 0.0) {
      const double give_up_ms = enter_ms + request.deadline_ms;
      while (!fill->done) {
        if (!cv_->WaitUntil(mu_, give_up_ms)) {
          break;  // Budget exhausted; the post-check below decides.
        }
      }
      if (!fill->done) {
        ++stats_.shed_waiting;
        const double waited_ms = clock_->NowMs() - enter_ms;
        mu_.Unlock();
        return MakeShedResult(request.deadline_ms, waited_ms);
      }
    } else {
      while (!fill->done) {
        cv_->Wait(mu_);
      }
    }
    // Loop: re-probe the map. If the leader succeeded we coalesce onto its
    // entry; if it failed (fill gone, no entry) we compete to lead anew.
  }

  // Miss: lead a fill. The lock is dropped across the inner pass so the
  // cache never serializes distinct queries.
  ++stats_.misses;
  auto fill = std::make_shared<FillState>();
  fills_.emplace(key, fill);
  mu_.Unlock();

  RerankResult result = inner_->Rerank(request);

  mu_.Lock();
  fills_.erase(key);
  if (result.status.ok()) {
    InsertLocked(std::move(key), result);
  } else {
    ++stats_.fill_errors;
  }
  // Success or failure, publish completion and release the key: waiters
  // coalesce onto the fresh entry, or — after a failed fill — the first
  // released waiter leads its own fill. An error never poisons the key,
  // and the leader's error surfaces only to its own caller.
  fill->done = true;
  cv_->NotifyAll();
  mu_.Unlock();
  return result;
}

ResultCacheStats ResultCache::stats() const {
  // A request parked behind a fill shows its lookup but not yet its
  // outcome: it drops mu_ while it waits.
  MutexLock lock(mu_);
  return stats_;
}

size_t ResultCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

}  // namespace prism
