#include "src/core/service_pool.h"

#include <utility>

#include "src/common/check.h"

namespace prism {

namespace {

std::vector<std::unique_ptr<RerankService>> BuildReplicas(const ModelConfig& config,
                                                          const std::string& checkpoint_path,
                                                          const ServicePoolOptions& options,
                                                          MemoryTracker* tracker) {
  PRISM_CHECK_GT(options.pool_size, 0u);
  std::vector<std::unique_ptr<RerankService>> replicas;
  replicas.reserve(options.pool_size);
  for (size_t i = 0; i < options.pool_size; ++i) {
    replicas.push_back(
        std::make_unique<RerankService>(config, checkpoint_path, options.service, tracker));
  }
  return replicas;
}

}  // namespace

ServicePool::ServicePool(const ModelConfig& config, const std::string& checkpoint_path,
                         ServicePoolOptions options, MemoryTracker* tracker)
    : ServicePool(BuildReplicas(config, checkpoint_path, options, tracker)) {}

ServicePool::ServicePool(std::vector<std::unique_ptr<RerankService>> replicas)
    : replicas_(std::move(replicas)) {
  PRISM_CHECK_GT(replicas_.size(), 0u);
  inflight_ = std::make_unique<std::atomic<size_t>[]>(replicas_.size());
  admitted_ = std::make_unique<std::atomic<size_t>[]>(replicas_.size());
}

std::string ServicePool::name() const {
  return "pool:least_loadedx" + std::to_string(replicas_.size());
}

RerankResult ServicePool::Rerank(const RerankRequest& request) {
  // Least in flight, ties toward the lowest index. Each count is a relaxed
  // read, so the scan may act on slightly stale load; the point is a cheap
  // wait-free pick on the hot path.
  size_t pick = 0;
  size_t least = inflight_[0].load(std::memory_order_relaxed);
  for (size_t i = 1; i < replicas_.size(); ++i) {
    const size_t load = inflight_[i].load(std::memory_order_relaxed);
    if (load < least) {
      pick = i;
      least = load;
    }
  }
  inflight_[pick].fetch_add(1, std::memory_order_relaxed);
  admitted_[pick].fetch_add(1, std::memory_order_relaxed);
  RerankResult result = replicas_[pick]->Rerank(request);
  inflight_[pick].fetch_sub(1, std::memory_order_relaxed);
  return result;
}

PoolStats ServicePool::stats() const {
  PoolStats stats;
  stats.replica_requests.resize(replicas_.size());
  stats.replica_inflight.resize(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    stats.aggregate.Merge(replicas_[i]->stats());
    stats.replica_requests[i] = admitted_[i].load(std::memory_order_relaxed);
    stats.replica_inflight[i] = inflight_[i].load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace prism
