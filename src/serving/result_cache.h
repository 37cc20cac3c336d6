// Exact-key LRU result cache with single-flight admission.
//
// The workload driver generates Zipf-popular queries (src/serving/workload),
// yet every repeat of a head query pays a full SSD-bound engine pass.
// ResultCache fronts any Runner — a RerankService, a ServicePool, a raw
// engine — behind the same Runner interface, so no call site changes:
//
//   clients ─► ResultCache ─► RerankService / ServicePool ─► engine(s)
//
// Design:
//   - One exact-key LRU of `capacity` entries behind one mutex. The key
//     hash is QueryHash over the query's tokens; a hash hit is confirmed by
//     full-token equality over (query, docs, planted_r, k), so a collision
//     can never serve a wrong result — a colliding request is forwarded
//     uncached. Admission attributes (priority, deadline) are not part of
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
//     Coalesced waiters are released one at a time, each at its own clock
//     instant (park order, ~1 us apart), never as a thundering herd: on a
//     SimClock a fill completion would otherwise make every waiter runnable
//     at the same virtual instant and their subsequent shared-queue
//     interactions would interleave by host thread timing — the staggered
//     release keeps a cache-fronted serial stack's replay byte-identical.
//
// Thread-safe throughout; stats() reads lock-free counter cells.
#ifndef PRISM_SRC_SERVING_RESULT_CACHE_H_
#define PRISM_SRC_SERVING_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/striped.h"
#include "src/runtime/runner.h"

namespace prism {

// Stable hash of a query's tokens: the cache's entry key. Only the query
// enters it; Key equality checks the rest of the identity.
uint64_t QueryHash(const RerankRequest& request);

struct ResultCacheOptions {
  // Resident entries (floored at 1).
  size_t capacity = 1024;
  // Time source for waiter parking and release. nullptr = shared wall
  // clock; point it (and the service's clock) at a SimClock for
  // deterministic virtual-time replay.
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
  double CoalescedRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(coalesced) / static_cast<double>(lookups);
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

  ResultCacheStats stats() const;  // Lock-free snapshot.
  size_t size() const;             // Resident entries.
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
    RerankResult result;  // status.ok() always; timing scrubbed.
  };

  // One in-flight fill. Waiters keep the state alive (shared_ptr) past the
  // fills-map erase that publishes completion; `parked` hands each waiter a
  // release slot in park order for the staggered post-fill wakeup. All
  // fields are guarded by the cache's mu_ (not annotatable here: the
  // guarding mutex lives in a different object).
  struct FillState {
    Key key;  // Pins the exact identity: a colliding hash never coalesces.
    bool done = false;
    double done_ms = 0.0;
    size_t parked = 0;
  };

  // Lock-free counter cells (src/common/striped.h): hit-path bumps don't
  // dirty the line the LRU bookkeeping lives on, and stats() never takes
  // mu_ — a monitoring scrape never stalls the serving path.
  struct Counters {
    CounterCell lookups;
    CounterCell hits;
    CounterCell coalesced;
    CounterCell shed_waiting;
    CounterCell misses;
    CounterCell fill_errors;
    CounterCell evicted;
  };

  void InsertLocked(uint64_t hash, Key key, const RerankResult& result) PRISM_REQUIRES(mu_);

  Runner* inner_;
  ResultCacheOptions options_;
  Clock* clock_;

  mutable Mutex mu_;
  std::unique_ptr<ClockCondVar> cv_;  // Single-flight waiters park here.
  // LRU: most-recent at front; map points into the list. One entry per
  // hash: a request whose hash names a different resident or in-flight key
  // is forwarded uncached.
  std::list<Entry> lru_ PRISM_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::list<Entry>::iterator> map_ PRISM_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::shared_ptr<FillState>> fills_ PRISM_GUARDED_BY(mu_);
  Counters counters_;  // Lock-free cells; deliberately outside mu_.
};

}  // namespace prism

#endif  // PRISM_SRC_SERVING_RESULT_CACHE_H_
