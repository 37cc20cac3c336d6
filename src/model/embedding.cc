#include "src/model/embedding.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/model/weights.h"

namespace prism {

FullEmbeddingTable::FullEmbeddingTable(const ModelConfig& config, BlobFileReader* reader,
                                       MemoryTracker* tracker)
    : config_(config) {
  table_.resize(config.vocab_size * config.hidden);
  auto* bytes = reinterpret_cast<uint8_t*>(table_.data());
  const Status status =
      reader->ReadBlob(EmbeddingBlobIndex(), {bytes, table_.size() * sizeof(float)});
  PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
  claim_ = MemClaim(tracker, MemCategory::kEmbedding,
                    static_cast<int64_t>(table_.size() * sizeof(float)));
}

void FullEmbeddingTable::Lookup(uint32_t token, std::span<float> dest) {
  PRISM_CHECK_EQ(dest.size(), config_.hidden);
  std::memcpy(dest.data(), Row(token).data(), config_.hidden * sizeof(float));
}

int64_t FullEmbeddingTable::ResidentBytes() const {
  return static_cast<int64_t>(table_.size() * sizeof(float));
}

std::span<const float> FullEmbeddingTable::Row(uint32_t token) const {
  PRISM_CHECK_LT(token, config_.vocab_size);
  return {table_.data() + static_cast<size_t>(token) * config_.hidden, config_.hidden};
}

EmbeddingCache::EmbeddingCache(const ModelConfig& config, BlobFileReader* reader,
                               size_t capacity_rows, MemoryTracker* tracker)
    : config_(config), reader_(reader), capacity_rows_(capacity_rows) {
  PRISM_CHECK_GT(capacity_rows_, 0u);
  claim_ = MemClaim(tracker, MemCategory::kEmbedding,
                    static_cast<int64_t>(capacity_rows_ * config_.hidden * sizeof(float)));
}

void EmbeddingCache::Lookup(uint32_t token, std::span<float> dest) {
  PRISM_CHECK_EQ(dest.size(), config_.hidden);
  PRISM_CHECK_LT(token, config_.vocab_size);
  mu_.Lock();
  const auto it = map_.find(token);
  if (it != map_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // Move to front.
    std::memcpy(dest.data(), it->second->second.data(), config_.hidden * sizeof(float));
    mu_.Unlock();
    return;
  }
  ++stats_.misses;
  stats_.miss_bytes += static_cast<int64_t>(config_.hidden * sizeof(float));
  // Row-granular read through the device model — this is the "negligible
  // latency" miss path the paper's ablation measures. The lock is released
  // across the device wait so other requests' hits proceed; misses
  // serialise behind the (single-queue) device itself.
  mu_.Unlock();
  std::vector<float> row(config_.hidden);
  const int64_t offset =
      static_cast<int64_t>(token) * static_cast<int64_t>(config_.hidden * sizeof(float));
  const std::pair<int64_t, std::span<uint8_t>> range(
      offset, {reinterpret_cast<uint8_t*>(row.data()), row.size() * sizeof(float)});
  const Status status = reader_->ReadBlobRanges(EmbeddingBlobIndex(), {&range, 1});
  PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
  std::memcpy(dest.data(), row.data(), config_.hidden * sizeof(float));
  MutexLock lock(mu_);
  if (map_.find(token) == map_.end()) {
    InsertRowLocked(token, std::move(row));
  }
  // else: lost a race with another miss of the same token — the row is
  // already resident (and identical, so either copy serves future hits).
}

void EmbeddingCache::PrefetchTokens(const std::vector<uint32_t>& tokens) {
  // Snapshot the unique missing tokens under the lock, but perform the
  // batched device read with it released: holding mu_ across the SSD wait
  // would block every concurrent Lookup — hits included — for the whole
  // read, the same lock discipline Lookup documents for its miss path.
  // The request's hits move to the LRU front in the same critical section,
  // so the misses inserted below evict other rows, not the ones this request
  // is about to Lookup (each evicted hit would cost a row-sized device read).
  std::vector<uint32_t> missing;
  {
    MutexLock lock(mu_);
    std::vector<uint32_t> unique(tokens);
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    for (uint32_t token : unique) {
      const auto it = map_.find(token);
      if (it == map_.end()) {
        missing.push_back(token);
      } else {
        lru_.splice(lru_.begin(), lru_, it->second);
      }
    }
  }
  if (missing.empty()) {
    return;
  }
  // Never prefetch more than the cache holds (tail tokens fall back to the
  // per-lookup miss path).
  if (missing.size() > capacity_rows_) {
    missing.resize(capacity_rows_);
  }
  const size_t row_bytes = config_.hidden * sizeof(float);
  std::vector<std::vector<float>> rows(missing.size());
  std::vector<std::pair<int64_t, std::span<uint8_t>>> ranges;
  ranges.reserve(missing.size());
  for (size_t i = 0; i < missing.size(); ++i) {
    rows[i].resize(config_.hidden);
    ranges.emplace_back(static_cast<int64_t>(missing[i]) * static_cast<int64_t>(row_bytes),
                        std::span<uint8_t>(reinterpret_cast<uint8_t*>(rows[i].data()), row_bytes));
  }
  const Status status = reader_->ReadBlobRanges(EmbeddingBlobIndex(), ranges);
  PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
  MutexLock lock(mu_);
  // The device read happened either way, so it counts as misses even for
  // rows that lose the insert race below.
  stats_.misses += static_cast<int64_t>(missing.size());
  stats_.miss_bytes += static_cast<int64_t>(missing.size() * row_bytes);
  for (size_t i = 0; i < missing.size(); ++i) {
    // Re-check: a concurrent Lookup miss (or another prefetch) may have
    // inserted the token while the lock was released. The competing row is
    // bit-identical, so dropping ours is safe.
    if (map_.find(missing[i]) == map_.end()) {
      InsertRowLocked(missing[i], std::move(rows[i]));
    }
  }
}

void EmbeddingCache::InsertRowLocked(uint32_t token, std::vector<float> row) {
  if (lru_.size() == capacity_rows_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(token, std::move(row));
  map_[token] = lru_.begin();
}

size_t EmbeddingCache::resident_rows() const {
  MutexLock lock(mu_);
  return map_.size();
}

EmbeddingCacheStats EmbeddingCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

int64_t EmbeddingCache::ResidentBytes() const {
  return static_cast<int64_t>(capacity_rows_ * config_.hidden * sizeof(float));
}

}  // namespace prism
