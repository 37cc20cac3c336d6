#include "src/serving/result_cache.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/rng.h"
#include "src/core/scheduler.h"

namespace prism {
namespace {

double Cosine(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.empty() || a.size() != b.size()) {
    return -1.0;
  }
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    na += static_cast<double>(a[i]) * static_cast<double>(a[i]);
    nb += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  if (na == 0.0 || nb == 0.0) {
    return -1.0;
  }
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

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

QueryEmbedder MakeQueryEmbedder(EmbeddingSource* source, size_t hidden) {
  return [source, hidden](const RerankRequest& request) {
    std::vector<float> mean(hidden, 0.0f);
    if (request.query.empty()) {
      return mean;
    }
    std::vector<float> row(hidden);
    for (uint32_t token : request.query) {
      source->Lookup(token, row);
      for (size_t i = 0; i < hidden; ++i) {
        mean[i] += row[i];
      }
    }
    const float inv = 1.0f / static_cast<float>(request.query.size());
    for (float& v : mean) {
      v *= inv;
    }
    return mean;
  };
}

ResultCache::ResultCache(Runner* inner, ResultCacheOptions options, QueryEmbedder embedder)
    : inner_(inner),
      options_(options),
      embedder_(std::move(embedder)),
      clock_(ResolveClock(options.clock)) {
  options_.capacity = std::max<size_t>(options_.capacity, 1);
  const size_t shard_count = std::max<size_t>(1, std::min(options_.shards, options_.capacity));
  per_shard_capacity_ = std::max<size_t>(1, options_.capacity / shard_count);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->cv = clock_->MakeCondVar();
    shards_.push_back(std::move(shard));
  }
}

ResultCache::Key ResultCache::MakeKey(const RerankRequest& request) {
  return Key{request.query, request.docs, request.planted_r, request.k};
}

bool ResultCache::Key::Matches(const RerankRequest& request) const {
  return k == request.k && query == request.query && docs == request.docs &&
         planted_r == request.planted_r;
}

bool ResultCache::ExpiredLocked(const Entry& entry, double now_ms) const {
  return options_.ttl_ms > 0.0 && now_ms >= entry.filled_ms + options_.ttl_ms;
}

void ResultCache::EraseEntryLocked(Shard& shard, std::list<Entry>::iterator it) {
  shard.map.erase(it->hash);
  shard.lru.erase(it);
}

void ResultCache::InsertLocked(Shard& shard, uint64_t hash, Key key, const RerankResult& result,
                               std::vector<float> embedding, double now_ms) {
  auto existing = shard.map.find(hash);
  if (existing != shard.map.end()) {
    // Refill (or a colliding key displacing the old entry — the equality
    // check on the read side keeps that safe).
    EraseEntryLocked(shard, existing->second);
  }
  while (shard.lru.size() >= per_shard_capacity_) {
    shard.counters.evicted.Add(1);
    EraseEntryLocked(shard, std::prev(shard.lru.end()));
  }
  Entry entry;
  entry.hash = hash;
  entry.key = std::move(key);
  entry.result = ServeCopy(result, 0.0);
  entry.filled_ms = now_ms;
  entry.embedding = std::move(embedding);
  shard.lru.push_front(std::move(entry));
  shard.map[hash] = shard.lru.begin();
}

const ResultCache::Entry* ResultCache::SimilarLocked(Shard& shard,
                                                     const std::vector<float>& embedding,
                                                     double now_ms) const {
  const Entry* best = nullptr;
  double best_cos = options_.similarity;
  for (const Entry& entry : shard.lru) {
    if (ExpiredLocked(entry, now_ms)) {
      continue;
    }
    const double cos = Cosine(embedding, entry.embedding);
    if (cos >= best_cos) {
      best = &entry;
      best_cos = cos;
    }
  }
  return best;
}

RerankResult ResultCache::Rerank(const RerankRequest& request) {
  const uint64_t hash = QueryHash(request);
  Shard& shard = *shards_[hash % shards_.size()];

  // Embed before taking the shard lock: the embedder may read rows through
  // the (mutex-guarded, possibly device-backed) embedding source, and a
  // cache lookup must never serialize behind another request's device read.
  std::vector<float> embedding;
  const bool similarity_on = options_.similarity > 0.0 && embedder_ != nullptr;
  if (similarity_on) {
    embedding = embedder_(request);
  }

  const double enter_ms = clock_->NowMs();
  shard.mu.Lock();
  shard.counters.lookups.Add(1);
  bool parked = false;  // Did we ever wait behind another caller's fill?
  for (;;) {
    const double now_ms = clock_->NowMs();
    auto it = shard.map.find(hash);
    if (it != shard.map.end()) {
      Entry& entry = *it->second;
      if (ExpiredLocked(entry, now_ms)) {
        shard.counters.expired.Add(1);
        EraseEntryLocked(shard, it->second);
      } else if (entry.key.Matches(request)) {
        if (parked) {
          shard.counters.coalesced.Add(1);
        } else {
          shard.counters.hits.Add(1);
        }
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        RerankResult served = ServeCopy(entry.result, now_ms - enter_ms);
        shard.mu.Unlock();
        return served;
      } else {
        // Hash collision with a different resident key: treat as an
        // uncacheable miss (forward without filling) rather than fight the
        // resident entry for the slot.
        shard.counters.misses.Add(1);
        shard.mu.Unlock();
        return inner_->Rerank(request);
      }
    }

    if (similarity_on) {
      if (const Entry* near = SimilarLocked(shard, embedding, now_ms)) {
        shard.counters.similarity_hits.Add(1);
        RerankResult served = ServeCopy(near->result, now_ms - enter_ms);
        shard.mu.Unlock();
        return served;
      }
    }

    auto fill_it = shard.fills.find(hash);
    if (fill_it == shard.fills.end()) {
      // No fill in flight: we lead one — unless we burned our whole
      // budget parked behind a fill that then failed.
      if (parked && request.deadline_ms > 0.0 && now_ms - enter_ms >= request.deadline_ms) {
        shard.counters.shed_waiting.Add(1);
        shard.mu.Unlock();
        return MakeShedResult(request.deadline_ms, now_ms - enter_ms);
      }
      break;
    }
    if (!fill_it->second->key.Matches(request)) {
      // A *different* key's fill owns this hash; don't coalesce onto a
      // result that isn't ours — forward directly, uncached.
      shard.counters.misses.Add(1);
      shard.mu.Unlock();
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
        if (!shard.cv->WaitUntil(shard.mu, give_up_ms)) {
          break;  // Budget exhausted; the post-check below decides.
        }
      }
      if (!fill->done) {
        shard.counters.shed_waiting.Add(1);
        const double waited_ms = clock_->NowMs() - enter_ms;
        shard.mu.Unlock();
        return MakeShedResult(request.deadline_ms, waited_ms);
      }
    } else {
      while (!fill->done) {
        shard.cv->Wait(shard.mu);
      }
    }
    // Staggered release (header note): every waiter woke at the fill's
    // completion instant; re-sleep to a slot of our own so waiters resume
    // one at a time, in park order.
    const double release_ms =
        fill->done_ms + kCoalesceStaggerMs * static_cast<double>(slot + 1) +
        kFillPhaseMs * static_cast<double>(hash % kFillPhaseBuckets + 1);
    shard.mu.Unlock();
    clock_->SleepUntil(release_ms);
    shard.mu.Lock();
    // Loop: re-probe the map. If the leader succeeded we coalesce onto its
    // entry; if it failed (fill gone, no entry) we compete to lead anew.
  }

  // Miss: lead a fill. The shard lock is dropped across the inner pass so
  // the cache never serializes distinct queries.
  shard.counters.misses.Add(1);
  auto fill = std::make_shared<FillState>();
  fill->key = MakeKey(request);
  shard.fills.emplace(hash, fill);
  shard.mu.Unlock();

  RerankResult result = inner_->Rerank(request);

  shard.mu.Lock();
  const double done_ms = clock_->NowMs();
  if (result.status.ok()) {
    InsertLocked(shard, hash, MakeKey(request), result, std::move(embedding), done_ms);
  } else {
    shard.counters.fill_errors.Add(1);
  }
  // Success or failure, publish completion and release the key: waiters
  // coalesce onto the fresh entry, or — after a failed fill — the first
  // released waiter leads its own fill. An error never poisons the key,
  // and the leader's error surfaces only to its own caller.
  fill->done = true;
  fill->done_ms = done_ms;
  shard.fills.erase(hash);
  shard.cv->NotifyAll();
  shard.mu.Unlock();
  return result;
}

void ResultCache::InvalidateAll() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->counters.invalidated.Add(static_cast<int64_t>(shard->lru.size()));
    shard->map.clear();
    shard->lru.clear();
  }
}

bool ResultCache::Invalidate(const RerankRequest& request) {
  const uint64_t hash = QueryHash(request);
  Shard& shard = *shards_[hash % shards_.size()];
  MutexLock lock(shard.mu);
  auto it = shard.map.find(hash);
  if (it == shard.map.end() || !it->second->key.Matches(request)) {
    return false;
  }
  shard.counters.invalidated.Add(1);
  EraseEntryLocked(shard, it->second);
  return true;
}

ResultCacheStats ResultCache::stats() const {
  // Lock-free fold of the per-shard cells. A snapshot, not a linearizable
  // total: a request mid-flight may show its lookup but not yet its
  // hit/miss outcome (HitRate momentarily undercounts, never divides by a
  // stale zero).
  ResultCacheStats merged;
  for (const auto& shard : shards_) {
    const ShardCounters& c = shard->counters;
    merged.lookups += static_cast<size_t>(c.lookups.Load());
    merged.hits += static_cast<size_t>(c.hits.Load());
    merged.similarity_hits += static_cast<size_t>(c.similarity_hits.Load());
    merged.coalesced += static_cast<size_t>(c.coalesced.Load());
    merged.shed_waiting += static_cast<size_t>(c.shed_waiting.Load());
    merged.misses += static_cast<size_t>(c.misses.Load());
    merged.fill_errors += static_cast<size_t>(c.fill_errors.Load());
    merged.expired += static_cast<size_t>(c.expired.Load());
    merged.evicted += static_cast<size_t>(c.evicted.Load());
    merged.invalidated += static_cast<size_t>(c.invalidated.Load());
  }
  return merged;
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace prism
