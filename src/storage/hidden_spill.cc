#include "src/storage/hidden_spill.h"

#include <unistd.h>

#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace prism {

SpillPool::SpillPool(SsdConfig config, MemoryTracker* tracker) : tracker_(tracker) {
  path_ = MakeTempDevicePath("spill");
  ssd_ = std::make_unique<SimulatedSsd>(path_, config);
}

SpillPool::~SpillPool() {
  // Drain all in-flight I/O before tearing down the device. Holding the pool
  // lock across the waits is safe: the I/O tasks touch only the device and
  // the tensors, never this pool.
  MutexLock lock(mu_);
  for (auto& [key, entry] : entries_) {
    if (entry.spill_done.valid()) {
      entry.spill_done.wait();
    }
    if (entry.prefetch_done.valid()) {
      entry.prefetch_done.wait();
    }
  }
  ssd_.reset();
  ::unlink(path_.c_str());
}

SpillPool::Entry* SpillPool::FindEntry(int64_t key) {
  MutexLock lock(mu_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void SpillPool::SpillAsync(int64_t key, Tensor t) {
  const int64_t bytes = static_cast<int64_t>(t.ByteSize());
  Entry* entry = nullptr;
  {
    MutexLock lock(mu_);
    entry = &entries_[key];
  }
  // Wait out the previous spill — and any prefetch still reading into the
  // entry's tensor — without holding the pool lock (only this key's owner
  // can reach this entry).
  WaitSpill(*entry);
  if (entry->prefetch_done.valid()) {
    entry->prefetch_done.get();
  }
  {
    // A respill keeps its extent if the tensor fits; otherwise take the
    // smallest free extent that does, or grow the file.
    MutexLock lock(mu_);
    if (entry->extent < bytes) {
      if (entry->extent > 0) {
        free_.emplace(entry->extent, entry->offset);
      }
      const auto fit = free_.lower_bound(bytes);
      if (fit == free_.end()) {
        entry->offset = cursor_;
        entry->extent = bytes;
        cursor_ += bytes;
      } else {
        entry->offset = fit->second;
        entry->extent = fit->first;
        free_.erase(fit);
      }
    }
  }
  const int64_t offset = entry->offset;
  entry->rows = t.rows();
  entry->cols = t.cols();
  entry->prefetched.reset();
  // The tensor moves into the I/O task; its tracked memory must be released
  // *inside* the task body (before the future resolves) — the task object
  // itself is destroyed by the worker thread some time after completion,
  // which could outlive this pool's tracker.
  auto shared = std::make_shared<Tensor>(std::move(t));
  SimulatedSsd* ssd = ssd_.get();
  entry->spill_done = GlobalIoPool().Submit([shared, offset, ssd]() mutable {
    const auto* data = reinterpret_cast<const uint8_t*>(shared->data());
    const Status status = ssd->Write(offset, {data, shared->ByteSize()});
    PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
    shared.reset();  // Destroy the tensor (and its memory claim) now.
  });
}

void SpillPool::PrefetchAsync(int64_t key) {
  Entry* entry = FindEntry(key);
  PRISM_CHECK_MSG(entry != nullptr, "Prefetch of key never spilled");
  if (entry->prefetched.has_value() || entry->prefetch_done.valid()) {
    return;  // Already resident or in flight.
  }
  WaitSpill(*entry);
  entry->prefetched.emplace(entry->rows, entry->cols, MemCategory::kHiddenStates, tracker_);
  Tensor* dest = &*entry->prefetched;
  const int64_t offset = entry->offset;
  SimulatedSsd* ssd = ssd_.get();
  entry->prefetch_done = GlobalIoPool().Submit([dest, offset, ssd] {
    auto* data = reinterpret_cast<uint8_t*>(dest->data());
    const Status status = ssd->Read(offset, {data, dest->ByteSize()});
    PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
  });
}

Tensor SpillPool::Take(int64_t key) {
  Entry* entry = FindEntry(key);
  PRISM_CHECK_MSG(entry != nullptr, "Take of key never spilled");
  Tensor t;
  if (!entry->prefetched.has_value() && !entry->prefetch_done.valid()) {
    // No prefetch issued; read synchronously.
    WaitSpill(*entry);
    t = Tensor(entry->rows, entry->cols, MemCategory::kHiddenStates, tracker_);
    auto* data = reinterpret_cast<uint8_t*>(t.data());
    const Status status = ssd_->Read(entry->offset, {data, t.ByteSize()});
    PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
  } else {
    if (entry->prefetch_done.valid()) {
      entry->prefetch_done.get();
    }
    t = std::move(*entry->prefetched);
    entry->prefetched.reset();
  }
  // Consume the entry: the map stays bounded in live chunks, and a later
  // Spill of the same key re-creates it.
  EraseEntry(key, *entry);
  return t;
}

void SpillPool::Drop(int64_t key) {
  Entry* entry = FindEntry(key);
  if (entry != nullptr) {
    EraseEntry(key, *entry);
  }
}

void SpillPool::EraseEntry(int64_t key, Entry& entry) {
  WaitSpill(entry);
  if (entry.prefetch_done.valid()) {
    entry.prefetch_done.get();
  }
  MutexLock lock(mu_);
  if (entry.extent > 0) {
    free_.emplace(entry.extent, entry.offset);
  }
  entries_.erase(key);
}

int64_t SpillPool::bytes_on_disk() const {
  MutexLock lock(mu_);
  return cursor_;
}

size_t SpillPool::live_entries() const {
  MutexLock lock(mu_);
  return entries_.size();
}

void SpillPool::WaitSpill(Entry& entry) {
  if (entry.spill_done.valid()) {
    entry.spill_done.get();
  }
}

}  // namespace prism
