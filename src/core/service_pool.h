// ServicePool: sharded multi-replica serving behind one Rerank() facade.
//
// One RerankService batches well but owns exactly one engine — one simulated
// device queue, one spill pool, one embedding cache. To scale past a single
// device, the pool owns N fully independent replicas (each its own
// RerankService, hence its own engine, device model, spill pool, and cache)
// and places every request on the replica with the fewest in-flight
// requests, ties going to the lowest index. Least-in-flight absorbs skewed
// request costs without any per-query state.
//
// Every replica runs the same checkpoint and options, so placement never
// changes a result: a request's topk/scores are bit-identical whichever
// replica serves it. Deadline shedding and priority ordering happen inside
// each replica's scheduler (src/core/scheduler.h); the pool adds placement
// and aggregate observability on top.
#ifndef PRISM_SRC_CORE_SERVICE_POOL_H_
#define PRISM_SRC_CORE_SERVICE_POOL_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/core/service.h"

namespace prism {

struct ServicePoolOptions {
  // Per-replica configuration; every replica is built from this template.
  ServiceOptions service;
  size_t pool_size = 2;
};

// Pool-wide snapshot: the merged per-replica ServiceStats plus placement
// counters, so an operator can see both aggregate request accounting and
// whether placement is spreading load.
struct PoolStats {
  ServiceStats aggregate;                 // All replicas merged.
  std::vector<size_t> replica_requests;   // Admitted per replica, cumulative.
  std::vector<size_t> replica_inflight;   // In flight per replica, snapshot.
};

// Like RerankService, the pool is a Runner, so an application pipeline can
// be served by one replica or a whole pool through the same pointer.
class ServicePool : public Runner {
 public:
  // Builds `pool_size` replicas of (config, checkpoint, options.service).
  ServicePool(const ModelConfig& config, const std::string& checkpoint_path,
              ServicePoolOptions options, MemoryTracker* tracker = &MemoryTracker::Global());

  // Adopts pre-built replicas (tests inject fault-wrapped services here).
  explicit ServicePool(std::vector<std::unique_ptr<RerankService>> replicas);

  // Thread-safe; places the request on the least-loaded replica and blocks
  // until served (or shed).
  RerankResult Rerank(const RerankRequest& request) override;

  std::string name() const override;

  size_t pool_size() const { return replicas_.size(); }
  RerankService& replica(size_t i) { return *replicas_[i]; }

  PoolStats stats() const;

 private:
  std::vector<std::unique_ptr<RerankService>> replicas_;
  // Indexed by replica; atomics because every client thread updates them.
  std::unique_ptr<std::atomic<size_t>[]> inflight_;
  std::unique_ptr<std::atomic<size_t>[]> admitted_;
};

}  // namespace prism

#endif  // PRISM_SRC_CORE_SERVICE_POOL_H_
