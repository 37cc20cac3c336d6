#include "src/storage/layer_streamer.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/timer.h"

namespace prism {

LayerStreamer::LayerStreamer(BlobFileReader* reader, std::vector<size_t> schedule,
                             size_t buffer_count, MemoryTracker* tracker, bool cyclic)
    : reader_(reader), schedule_(std::move(schedule)), tracker_(tracker) {
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
    for (auto& buf : buffers_) {
      if (buf.seq == seq && buf.ready) {
        hit = &buf;
        break;
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
    bool found = false;
    for (auto& buf : buffers_) {
      if (buf.seq == seq) {
        FreeBufferLocked(&buf);
        found = true;
        break;
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
      // buffer still loading (seq set, !ready) is being written outside the
      // lock — the prefetcher frees it on completion instead.
      if (buf.seq != SIZE_MAX && buf.seq < seq && buf.ready) {
        FreeBufferLocked(&buf);
      }
    }
  }
  cv_.NotifyAll();
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
        // A position must be pending, within `buffer_count` of the release
        // floor (so at most that many blobs are ever resident), and a free
        // buffer must exist.
        if (next_to_load_ < schedule_end_ &&
            next_to_load_ < release_floor_ + buffers_.size()) {
          for (auto& buf : buffers_) {
            if (buf.seq == SIZE_MAX) {
              target = &buf;
              break;
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
      const int64_t size = reader_->BlobSize(blob_index);
      target->bytes.resize(static_cast<size_t>(size));
      target->claim = MemClaim(tracker_, MemCategory::kWeights, size);
    }
    // I/O happens outside the lock; the device model inside SimulatedSsd
    // provides the timing.
    const Status status = reader_->ReadBlob(blob_index, target->bytes);
    PRISM_CHECK_MSG(status.ok(), status.ToString().c_str());
    {
      MutexLock lock(mu_);
      stats_.bytes_loaded += static_cast<int64_t>(target->bytes.size());
      ++stats_.blobs_loaded;
      if (target->seq < release_floor_) {
        // The position was skipped while the read was in flight; the bytes
        // were paid for (counted above) but nobody will consume them.
        FreeBufferLocked(target);
      } else {
        target->ready = true;
      }
    }
    cv_.NotifyAll();
  }
}

}  // namespace prism
