// Embedding sources: the fully-resident table and the LRU-cached table.
//
// §4.4 of the paper: after layer streaming, the embedding table dominates the
// remaining memory footprint, but its activation is highly sparse (a 20×512
// request touches ≤ 6.75% of the vocabulary) and Zipf-skewed. EmbeddingCache
// keeps only `capacity_rows` rows in memory (LRU) and reads misses row-by-row
// from the checkpoint through the simulated SSD.
#ifndef PRISM_SRC_MODEL_EMBEDDING_H_
#define PRISM_SRC_MODEL_EMBEDDING_H_

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/memory_tracker.h"
#include "src/common/mutex.h"
#include "src/model/config.h"
#include "src/storage/blob_file.h"

namespace prism {

// Common interface so runners can swap the resident table for the cache.
class EmbeddingSource {
 public:
  virtual ~EmbeddingSource() = default;
  // Copies the embedding row for `token` into `dest` (size == hidden).
  virtual void Lookup(uint32_t token, std::span<float> dest) = 0;
  virtual int64_t ResidentBytes() const = 0;
};

// Loads blob 0 fully into memory (the baseline runners' behaviour).
class FullEmbeddingTable : public EmbeddingSource {
 public:
  FullEmbeddingTable(const ModelConfig& config, BlobFileReader* reader,
                     MemoryTracker* tracker = &MemoryTracker::Global());

  void Lookup(uint32_t token, std::span<float> dest) override;
  int64_t ResidentBytes() const override;

  std::span<const float> Row(uint32_t token) const;

 private:
  ModelConfig config_;
  std::vector<float> table_;
  MemClaim claim_;
};

struct EmbeddingCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t miss_bytes = 0;

  double HitRate() const {
    const int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// LRU row cache over the on-disk embedding blob (§4.4). Misses trigger a
// synchronous row-granular read through the simulated device.
//
// Thread-safe: the cache is shared by every request in flight through the
// engine, so all LRU bookkeeping (and the stats) is mutex-guarded. The row
// *values* a lookup returns are independent of hit/miss interleavings, which
// is what keeps concurrently-served requests bit-identical to serial runs;
// only the hit-rate stats depend on arrival order.
class EmbeddingCache : public EmbeddingSource {
 public:
  EmbeddingCache(const ModelConfig& config, BlobFileReader* reader, size_t capacity_rows,
                 MemoryTracker* tracker = &MemoryTracker::Global());

  void Lookup(uint32_t token, std::span<float> dest) override;
  int64_t ResidentBytes() const override;

  // Batched miss handling (paper §4.5): collects the unique tokens of a
  // request that are not resident and fetches them in a single device read
  // per contiguous run, paying the request latency once instead of per row.
  // The request's resident rows move to the LRU front first, so the rows it
  // inserts evict other rows before the ones it is about to look up.
  // The lock is released across the device read (same discipline as
  // Lookup's miss path), so concurrent hits never wait on a prefetch; rows
  // that lose a concurrent-insert race are dropped on reacquire.
  void PrefetchTokens(const std::vector<uint32_t>& tokens);

  size_t capacity_rows() const { return capacity_rows_; }
  size_t resident_rows() const;
  EmbeddingCacheStats stats() const;  // Snapshot (cumulative).

 private:
  void InsertRowLocked(uint32_t token, std::vector<float> row) PRISM_REQUIRES(mu_);

  ModelConfig config_;
  BlobFileReader* reader_;
  size_t capacity_rows_;
  mutable Mutex mu_;
  // LRU: most-recent at front. map_ points into lru_.
  std::list<std::pair<uint32_t, std::vector<float>>> lru_ PRISM_GUARDED_BY(mu_);
  std::unordered_map<uint32_t, std::list<std::pair<uint32_t, std::vector<float>>>::iterator> map_
      PRISM_GUARDED_BY(mu_);
  EmbeddingCacheStats stats_ PRISM_GUARDED_BY(mu_);
  MemClaim claim_;  // Claims capacity upfront: the cache is a fixed budget.
};

}  // namespace prism

#endif  // PRISM_SRC_MODEL_EMBEDDING_H_
