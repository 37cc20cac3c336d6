// Zipf-aware result cache tier with single-flight admission.
//
// The workload driver generates Zipf-popular queries (src/serving/workload),
// yet every repeat of a head query pays a full SSD-bound engine pass.
// ResultCache fronts any Runner — a RerankService, a ServicePool, a raw
// engine — behind the same Runner interface, so no call site changes:
//
//   clients ─► ResultCache ─► RerankService / ServicePool ─► engine(s)
//
// Design:
//   - Exact-key, sharded LRU. The key hash is QueryHash over the query's
//     tokens; a hash hit is confirmed by full-token equality over
//     (query, docs, planted_r, k), so a collision can never serve a wrong
//     result. Admission attributes (priority, deadline) are not part of
//     the key.
//   - Clock-seam TTL. Every expiry decision reads ResultCacheOptions::clock
//     (wall by default): an entry filled at t expires at exactly
//     t + ttl_ms, so simulated runs replay byte-identically.
//   - Single-flight admission. Concurrent identical queries coalesce onto
//     one in-flight engine pass: the first misser becomes the fill leader
//     and runs the inner runner; followers park on a Clock::MakeCondVar
//     waiter, honoring their own deadlines (a waiter whose budget expires
//     while parked sheds with its true queue residence, exactly like the
//     scheduler queues). A failed fill never poisons the key: the leader's
//     error surfaces to its own caller only, and woken followers re-compete
//     to lead a fresh fill. This is where Zipf flash crowds actually burn
//     capacity — without it, N concurrent repeats of a cold head query
//     would all miss and run N engine passes.
//     Coalesced waiters are released one at a time, each at its own clock
//     instant (park order, ~1 us apart), never as a thundering herd: on a
//     SimClock a fill completion would otherwise make every waiter runnable
//     at the same virtual instant and their subsequent shared-queue
//     interactions would interleave by host thread timing — the staggered
//     release keeps a cache-fronted serial stack's replay byte-identical.
//   - Optional embedding-similarity admission (off by default): when a
//     QueryEmbedder is supplied and `similarity` > 0, an exact miss scans
//     its shard for a fresh entry whose query embedding has cosine ≥ the
//     threshold and serves it. This can change selections (a near-duplicate
//     query gets its neighbour's ranking), so it is guarded by the
//     golden/selection-signature nets: the workload mismatch checks must
//     stay at 0 with the tier off, and any nonzero threshold is an explicit
//     opt-in to approximate serving.
//
// Thread-safe throughout; stats are per-shard and merged on read.
#ifndef PRISM_SRC_SERVING_RESULT_CACHE_H_
#define PRISM_SRC_SERVING_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/striped.h"
#include "src/model/embedding.h"
#include "src/runtime/runner.h"

namespace prism {

// Stable hash of a query's tokens: the cache's shard and entry key. Only
// the query enters it; Key equality checks the rest of the identity.
uint64_t QueryHash(const RerankRequest& request);

// Maps a request's query to a fixed-length embedding for the similarity
// tier. Must be thread-safe (client threads call it concurrently).
using QueryEmbedder = std::function<std::vector<float>(const RerankRequest&)>;

// Mean embedding of the query's tokens through `source` — the same vectors
// EmbedStage feeds the layers (PrismEngine::embedding_source()), so queries
// the model sees as near-duplicates embed near each other. `hidden` is the
// model's hidden size. The source must outlive the returned function.
QueryEmbedder MakeQueryEmbedder(EmbeddingSource* source, size_t hidden);

struct ResultCacheOptions {
  // Total entries across all shards (per-shard capacity is the even split,
  // floored at 1; shard count is clamped to the capacity so a tiny cache
  // is still exactly `capacity` entries).
  size_t capacity = 1024;
  size_t shards = 8;
  // An entry filled at t serves hits while now < t + ttl_ms and expires at
  // exactly t + ttl_ms (the instant itself misses, matching the queues'
  // deadline semantics). <= 0: entries never expire.
  double ttl_ms = 0.0;
  // Cosine threshold for the similarity tier; 0 (or no embedder) disables
  // it. CAUTION: any value < 1 serves approximate results — see file
  // comment.
  double similarity = 0.0;
  // Time source for TTL stamps/expiry and waiter parking. nullptr = shared
  // wall clock; point it (and the service's clock) at a SimClock for
  // deterministic virtual-time replay.
  Clock* clock = nullptr;
};

// Cumulative counters (merged across shards). A request is counted in
// exactly one of: hits, similarity_hits, coalesced, shed_waiting, misses.
struct ResultCacheStats {
  size_t lookups = 0;
  size_t hits = 0;             // Exact-key, fresh entry on arrival.
  size_t similarity_hits = 0;  // Served by a cosine-neighbour entry.
  size_t coalesced = 0;        // Parked behind a leader's fill, then served.
  size_t shed_waiting = 0;     // Deadline expired while parked.
  size_t misses = 0;           // Went to the inner runner (fill leaders).
  size_t fill_errors = 0;      // Fills whose inner result was not ok.
  size_t expired = 0;          // Entries dropped at TTL.
  size_t evicted = 0;          // Entries dropped by LRU capacity.
  size_t invalidated = 0;      // Entries dropped by Invalidate*.

  // Fraction of lookups served from the cache without an engine pass.
  double HitRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits + similarity_hits + coalesced) /
                              static_cast<double>(lookups);
  }
  double CoalescedRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(coalesced) / static_cast<double>(lookups);
  }
};

class ResultCache : public Runner {
 public:
  // The inner runner must outlive the cache. `embedder` is only consulted
  // when options.similarity > 0.
  ResultCache(Runner* inner, ResultCacheOptions options, QueryEmbedder embedder = nullptr);

  // Thread-safe. A fresh hit returns the cached engine result (timing
  // stats scrubbed, queue_wait_ms = time spent inside the cache, i.e. 0
  // for an immediate hit and the park time for a coalesced one); a miss
  // runs the inner runner and, on success, fills the cache.
  RerankResult Rerank(const RerankRequest& request) override;

  std::string name() const override { return "cache:" + inner_->name(); }

  // Explicit invalidation (e.g. after a corpus update). Entries only; an
  // in-flight fill completing afterwards re-inserts its (new) result.
  void InvalidateAll();
  // Drops the entry for exactly this request's key, if cached. Returns
  // whether one was dropped.
  bool Invalidate(const RerankRequest& request);

  ResultCacheStats stats() const;  // Snapshot, merged across shards.
  size_t size() const;             // Resident entries, all shards.
  const ResultCacheOptions& options() const { return options_; }

 private:
  // Full identity of a cached result: everything the engine's ranking is a
  // function of.
  struct Key {
    std::vector<uint32_t> query;
    std::vector<std::vector<uint32_t>> docs;
    std::vector<float> planted_r;
    size_t k = 0;

    bool operator==(const Key& other) const = default;
    bool Matches(const RerankRequest& request) const;
  };
  static Key MakeKey(const RerankRequest& request);

  struct Entry {
    uint64_t hash = 0;
    Key key;
    RerankResult result;          // status.ok() always; timing scrubbed.
    double filled_ms = 0.0;       // Clock instant the fill completed.
    std::vector<float> embedding;  // Query embedding (similarity tier only).
  };

  // One in-flight fill. Waiters keep the state alive (shared_ptr) past the
  // fills-map erase that publishes completion; `parked` hands each waiter a
  // release slot in park order for the staggered post-fill wakeup. All
  // fields are guarded by the owning shard's mu (not annotatable here: the
  // guarding mutex lives in a different object).
  struct FillState {
    Key key;  // Pins the exact identity: a colliding hash never coalesces.
    bool done = false;
    double done_ms = 0.0;
    size_t parked = 0;
  };

  // Per-shard stats as cache-line-isolated atomic cells (src/common/
  // striped.h): hit-path bumps don't dirty the line the LRU bookkeeping
  // lives on, and stats() folds all shards without touching a single shard
  // mutex — a monitoring scrape never stalls the serving path.
  struct ShardCounters {
    CounterCell lookups;
    CounterCell hits;
    CounterCell similarity_hits;
    CounterCell coalesced;
    CounterCell shed_waiting;
    CounterCell misses;
    CounterCell fill_errors;
    CounterCell expired;
    CounterCell evicted;
    CounterCell invalidated;
  };

  struct Shard {
    mutable Mutex mu;
    std::unique_ptr<ClockCondVar> cv;  // Single-flight waiters park here.
    // LRU: most-recent at front; map points into the list. One entry per
    // hash (a colliding different key replaces on insert — the equality
    // check keeps that safe, merely a capacity loss).
    std::list<Entry> lru PRISM_GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::list<Entry>::iterator> map PRISM_GUARDED_BY(mu);
    std::unordered_map<uint64_t, std::shared_ptr<FillState>> fills PRISM_GUARDED_BY(mu);
    ShardCounters counters;  // Lock-free cells; deliberately outside mu.
  };

  // All *Locked helpers require the owning shard's mu held (ExpiredLocked
  // touches no guarded state itself — the name documents the calling
  // convention, since the entries it inspects live in guarded containers).
  bool ExpiredLocked(const Entry& entry, double now_ms) const;
  void EraseEntryLocked(Shard& shard, std::list<Entry>::iterator it)
      PRISM_REQUIRES(shard.mu);
  void InsertLocked(Shard& shard, uint64_t hash, Key key, const RerankResult& result,
                    std::vector<float> embedding, double now_ms) PRISM_REQUIRES(shard.mu);
  // Scans the shard for a fresh entry whose embedding has cosine >= the
  // threshold with `embedding`; null when none.
  const Entry* SimilarLocked(Shard& shard, const std::vector<float>& embedding,
                             double now_ms) const PRISM_REQUIRES(shard.mu);

  Runner* inner_;
  ResultCacheOptions options_;
  QueryEmbedder embedder_;
  size_t per_shard_capacity_;
  Clock* clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace prism

#endif  // PRISM_SRC_SERVING_RESULT_CACHE_H_
