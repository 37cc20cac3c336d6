#include "src/storage/layer_streamer.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/timer.h"

namespace prism {

LayerStreamer::LayerStreamer(BlobFileReader* reader, std::vector<size_t> schedule,
                             size_t buffer_count, MemoryTracker* tracker, bool cyclic)
    : reader_(reader), schedule_(std::move(schedule)), tracker_(tracker), cyclic_(cyclic) {
  PRISM_CHECK_GE(buffer_count, 2u);
  PRISM_CHECK_GT(schedule_.size(), 0u);
  buffers_.resize(buffer_count);
  schedule_end_ = cyclic ? SIZE_MAX : schedule_.size();
  prefetcher_ = std::thread([this] { PrefetchLoop(); });
}

LayerStreamer::~LayerStreamer() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
    cancel_.store(true);  // Whatever is in flight is dead.
  }
  cv_.NotifyAll();
  prefetcher_.join();
}

void LayerStreamer::FreeBufferLocked(Buffer* buf) {
  buf->seq = SIZE_MAX;
  buf->ready = false;
  buf->bytes.clear();
  buf->bytes.shrink_to_fit();
  buf->claim.ReleaseNow();
}

std::span<const uint8_t> LayerStreamer::Acquire(size_t seq) {
  const int64_t start = NowMicros();
  MutexLock lock(mu_);
  PRISM_CHECK_LT(seq, schedule_end_);
  PRISM_CHECK_GE(seq, release_floor_);  // Released or skipped positions are gone.
  Buffer* hit = nullptr;
  for (;;) {
    if (IsHead(seq)) {
      hit = head_.ready ? &head_ : nullptr;
    } else {
      for (auto& buf : buffers_) {
        if (buf.seq == seq && buf.ready) {
          hit = &buf;
          break;
        }
      }
    }
    if (hit != nullptr) {
      break;
    }
    cv_.Wait(mu_);
  }
  stats_.stall_micros += NowMicros() - start;
  return {hit->bytes.data(), hit->bytes.size()};
}

void LayerStreamer::Release(size_t seq) {
  {
    MutexLock lock(mu_);
    bool found = IsHead(seq) && head_.ready;  // The pinned head stays resident.
    for (auto& buf : buffers_) {
      if (!found && buf.seq == seq) {
        FreeBufferLocked(&buf);
        found = true;
      }
    }
    PRISM_CHECK_MSG(found, "Release of blob that is not resident");
    release_floor_ = std::max(release_floor_, seq + 1);
  }
  cv_.NotifyAll();
}

void LayerStreamer::TruncateSchedule(size_t last_seq) {
  {
    MutexLock lock(mu_);
    schedule_end_ = std::min(schedule_end_, last_seq + 1);
    for (const auto& buf : buffers_) {
      if (buf.seq != SIZE_MAX && buf.seq >= schedule_end_ && !buf.ready) {
        cancel_.store(true);  // The in-flight read is past the new end.
      }
    }
  }
  cv_.NotifyAll();
}

void LayerStreamer::SkipTo(size_t seq) {
  {
    MutexLock lock(mu_);
    PRISM_CHECK_GE(seq, release_floor_);
    release_floor_ = seq;
    next_to_load_ = std::max(next_to_load_, seq);
    for (auto& buf : buffers_) {
      // Ready buffers below the new floor are dead weight; free them now. A
      // buffer still loading is being written outside the lock — its read is
      // cancelled and the prefetcher frees it when the read returns.
      if (buf.seq == SIZE_MAX || buf.seq >= seq) {
        continue;
      }
      if (buf.ready) {
        FreeBufferLocked(&buf);
      } else {
        cancel_.store(true);
      }
    }
  }
  cv_.NotifyAll();
}

size_t LayerStreamer::WindowEndLocked() const {
  // The first `buffer_count` non-head positions at or after the floor; the
  // head has a buffer of its own, so its positions take no window slot. No
  // two adjacent positions are both heads unless every position is (a
  // one-blob cyclic schedule), so the window spans at most twice
  // `buffer_count` positions, which also keeps that case finite.
  const size_t slots = buffers_.size();
  size_t end = release_floor_;
  for (size_t counted = 0; counted < slots && end < release_floor_ + 2 * slots; ++end) {
    if (!IsHead(end)) {
      ++counted;
    }
  }
  return end;
}

StreamerStats LayerStreamer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void LayerStreamer::PrefetchLoop() {
  for (;;) {
    size_t seq = 0;
    Buffer* target = nullptr;
    size_t blob_index = 0;
    {
      MutexLock lock(mu_);
      for (;;) {
        if (shutting_down_) {
          return;
        }
        // A position must be pending, inside the look-ahead window, and a
        // free buffer must exist. A head position takes the head buffer on
        // its first visit and is stepped over afterwards.
        if (next_to_load_ < schedule_end_ && next_to_load_ < WindowEndLocked()) {
          if (IsHead(next_to_load_)) {
            if (head_.seq != SIZE_MAX) {
              ++next_to_load_;
              continue;
            }
            target = &head_;
          } else {
            for (auto& buf : buffers_) {
              if (buf.seq == SIZE_MAX) {
                target = &buf;
                break;
              }
            }
          }
        }
        if (target != nullptr) {
          break;
        }
        cv_.Wait(mu_);
      }
      seq = next_to_load_++;
      blob_index = schedule_[seq % schedule_.size()];
      target->seq = seq;
      target->ready = false;
      cancel_.store(false);
      const int64_t size = reader_->BlobSize(blob_index);
      target->bytes.resize(static_cast<size_t>(size));
      target->claim = MemClaim(tracker_, MemCategory::kWeights, size);
    }
    // I/O happens outside the lock; the device model inside SimulatedSsd
    // provides the timing.
    const Status status = reader_->ReadBlob(blob_index, target->bytes, &cancel_);
    if (status.code() == StatusCode::kCancelled) {
      {
        MutexLock lock(mu_);
        FreeBufferLocked(target);
      }
      cv_.NotifyAll();
      continue;
    }
    PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
    {
      MutexLock lock(mu_);
      stats_.bytes_loaded += static_cast<int64_t>(target->bytes.size());
      ++stats_.blobs_loaded;
      if (target != &head_ && target->seq < release_floor_) {
        // The position was skipped after its read passed its last chunk
        // boundary; the bytes were paid for (counted above) but nobody will
        // consume them. The head serves every later revolution, so it is
        // kept either way.
        FreeBufferLocked(target);
      } else {
        target->ready = true;
      }
    }
    cv_.NotifyAll();
  }
}

}  // namespace prism
