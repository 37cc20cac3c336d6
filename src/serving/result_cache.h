// Exact-key LRU result cache with single-flight admission.
//
// The workload driver generates Zipf-popular queries (src/serving/workload),
// yet every repeat of a head query pays a full SSD-bound engine pass.
// ResultCache fronts any Runner — a RerankService or a raw engine — behind
// the same Runner interface, so no call site changes:
//
//   clients ─► ResultCache ─► RerankService ─► engine
//
// Design:
//   - One exact-key LRU of `capacity` entries behind one mutex, keyed by
//     RequestKey (src/runtime/runner.h): the whole of (query, docs,
//     planted_r, k), so a cache of N entries holds any N distinct requests
//     — two requests that share a query but not their candidates are two
//     entries. Admission attributes (priority, deadline) are not part of
//     the key. Every served ranking is one the reranker produced for
//     exactly that request; entries never expire (the corpus is immutable)
//     and leave only by LRU eviction.
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
//     A fill completion wakes every waiter at its instant. On a SimClock
//     they then resume one at a time in park order (the clock runs one
//     participant at a time, src/common/clock.h), so a cache-fronted
//     stack's replay is byte-identical without any release schedule here.
//
// Thread-safe throughout. Every counter is bumped under the cache mutex, so
// stats() is one consistent snapshot.
#ifndef PRISM_SRC_SERVING_RESULT_CACHE_H_
#define PRISM_SRC_SERVING_RESULT_CACHE_H_

#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/annotations.h"
#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/runtime/runner.h"

namespace prism {

struct ResultCacheOptions {
  // Resident entries (floored at 1).
  size_t capacity = 1024;
  // Time source for waiter parking. nullptr = shared wall clock; point it
  // (and the service's clock) at a SimClock for deterministic virtual-time
  // replay.
  Clock* clock = nullptr;
};

// Cumulative counters. A request is counted in exactly one of: hits,
// coalesced, shed_waiting, misses.
struct ResultCacheStats {
  size_t lookups = 0;
  size_t hits = 0;             // Exact-key entry resident on arrival.
  // Always 0: the cache serves exact keys only. Kept because the perfbench
  // harness still sums it; delete with that reader.
  size_t similarity_hits = 0;
  size_t coalesced = 0;        // Parked behind a leader's fill, then served.
  size_t shed_waiting = 0;     // Deadline expired while parked.
  size_t misses = 0;           // Went to the inner runner (fill leaders).
  size_t fill_errors = 0;      // Fills whose inner result was not ok.
  size_t evicted = 0;          // Entries dropped by LRU capacity.

  // Fraction of lookups served from the cache without an engine pass.
  double HitRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits + coalesced) / static_cast<double>(lookups);
  }
};

class ResultCache : public Runner {
 public:
  // The inner runner must outlive the cache.
  ResultCache(Runner* inner, ResultCacheOptions options);

  // Thread-safe. A hit returns the cached engine result (timing stats
  // scrubbed, queue_wait_ms = time spent inside the cache, i.e. 0 for an
  // immediate hit and the park time for a coalesced one); a miss runs the
  // inner runner and, on success, fills the cache.
  RerankResult Rerank(const RerankRequest& request) override;

  std::string name() const override { return "cache:" + inner_->name(); }

  ResultCacheStats stats() const;
  size_t size() const;  // Resident entries.
  const ResultCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    RequestKey key;
    RerankResult result;  // status.ok() always; timing scrubbed.
  };

  // One in-flight fill. Waiters keep the state alive (shared_ptr) past the
  // fills-map erase that publishes completion. Guarded by the cache's mu_
  // (not annotatable here: the guarding mutex lives in a different object).
  struct FillState {
    bool done = false;
  };

  void InsertLocked(RequestKey key, const RerankResult& result) PRISM_REQUIRES(mu_);

  Runner* inner_;
  ResultCacheOptions options_;
  Clock* clock_;

  mutable Mutex mu_;
  std::unique_ptr<ClockCondVar> cv_;  // Single-flight waiters park here.
  // LRU: most-recent at front; map points into the list. A key has at most
  // one resident entry and at most one fill in flight.
  std::list<Entry> lru_ PRISM_GUARDED_BY(mu_);
  std::unordered_map<RequestKey, std::list<Entry>::iterator, RequestKeyHash> map_
      PRISM_GUARDED_BY(mu_);
  std::unordered_map<RequestKey, std::shared_ptr<FillState>, RequestKeyHash> fills_
      PRISM_GUARDED_BY(mu_);
  ResultCacheStats stats_ PRISM_GUARDED_BY(mu_);
};

}  // namespace prism

#endif  // PRISM_SRC_SERVING_RESULT_CACHE_H_
