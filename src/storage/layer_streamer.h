// Overlapped layer streaming (paper §4.2).
//
// Keeps at most `buffer_count` (default two) blobs resident: the one being
// consumed and the one being prefetched. A background thread walks a blob
// schedule; Acquire(i) blocks only if the prefetch has not caught up — the
// stall time is recorded so the ablation bench (Fig 16) can report the
// latency overhead when pruning shrinks the compute window below the load
// time. Releasing blob i immediately frees its buffer and lets the prefetcher
// pull blob i+buffer_count.
//
// Two schedule modes:
//   - terminating (default): the schedule is consumed once, front to back.
//   - cyclic: the schedule wraps — sequence position `seq` maps to blob
//     `schedule[seq % schedule.size()]` and the walk never ends on its own
//     (1..L, 1..L, …). This is the layer carousel the continuous-batching
//     scheduler rides: every in-flight request shares the same endless layer
//     stream, and the prefetcher keeps the next cycle's first layers warm
//     while the current cycle's tail computes.
//
// Sequence positions stay monotonic in both modes, so TruncateSchedule keeps
// its exact semantics under wrap-around: it caps the monotonic sequence
// space, not a layer index — truncating at seq 17 of a 6-blob cyclic
// schedule stops the prefetcher partway through the third cycle. SkipTo
// discards unconsumed positions below a point (e.g. the rest of a drained
// cycle) without tearing the streamer down, so a carousel that emptied at
// layer 3 can jump straight to the next cycle's layer 0.
#ifndef PRISM_SRC_STORAGE_LAYER_STREAMER_H_
#define PRISM_SRC_STORAGE_LAYER_STREAMER_H_

#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/memory_tracker.h"
#include "src/common/mutex.h"
#include "src/storage/blob_file.h"

namespace prism {

// Cumulative over the streamer's life, every cycle included.
struct StreamerStats {
  int64_t bytes_loaded = 0;
  int64_t stall_micros = 0;  // Time Acquire spent waiting on I/O.
  int64_t blobs_loaded = 0;
};

class LayerStreamer {
 public:
  // `schedule` lists blob indices in consumption order (e.g. layer blobs
  // 1..L). The streamer starts prefetching immediately. With `cyclic`, the
  // schedule wraps instead of terminating (see file comment).
  LayerStreamer(BlobFileReader* reader, std::vector<size_t> schedule, size_t buffer_count = 2,
                MemoryTracker* tracker = &MemoryTracker::Global(), bool cyclic = false);
  ~LayerStreamer();

  LayerStreamer(const LayerStreamer&) = delete;
  LayerStreamer& operator=(const LayerStreamer&) = delete;

  // Blocks until the `seq`-th scheduled blob is resident; returns its bytes.
  // The span stays valid until Release(seq). Positions must be consumed in
  // increasing order; skipped positions (SkipTo) may not be acquired.
  std::span<const uint8_t> Acquire(size_t seq);

  // Frees the buffer of the `seq`-th blob (must be acquired, in order).
  void Release(size_t seq);

  // Stops prefetching beyond the given sequence point (early termination by
  // pruning). In-flight loads complete; subsequent Acquire calls must not
  // exceed `last_seq`. Sequence points are monotonic even in cyclic mode, so
  // this truncates mid-cycle exactly like mid-schedule.
  void TruncateSchedule(size_t last_seq);

  // Discards every unconsumed position below `seq` without stopping the
  // walk: ready buffers holding skipped positions are freed now, in-flight
  // loads are freed on completion, and prefetching resumes from `seq`. The
  // carousel uses this to wrap early — jumping from a drained cycle's middle
  // to the next cycle's first layer — instead of fetching layers nobody
  // needs. `seq` must not precede a position already consumed.
  void SkipTo(size_t seq);

  StreamerStats stats() const;

 private:
  struct Buffer {
    std::vector<uint8_t> bytes;
    MemClaim claim;
    size_t seq = SIZE_MAX;  // Which schedule position it holds.
    bool ready = false;
  };

  void PrefetchLoop();
  void FreeBufferLocked(Buffer* buf) PRISM_REQUIRES(mu_);

  BlobFileReader* reader_;
  std::vector<size_t> schedule_;
  MemoryTracker* tracker_;

  mutable Mutex mu_;
  CondVar cv_;
  // The vector and every Buffer's bookkeeping fields are guarded; a buffer
  // mid-load (seq set, !ready) additionally has its `bytes` written by the
  // prefetcher outside the lock — nobody else may touch a !ready buffer's
  // bytes (Acquire only returns ready ones).
  std::vector<Buffer> buffers_ PRISM_GUARDED_BY(mu_);
  // Next schedule position the prefetcher fills.
  size_t next_to_load_ PRISM_GUARDED_BY(mu_) = 0;
  // All seq < floor have been released/skipped.
  size_t release_floor_ PRISM_GUARDED_BY(mu_) = 0;
  // Exclusive end (may shrink via Truncate).
  size_t schedule_end_ PRISM_GUARDED_BY(mu_) = 0;
  bool shutting_down_ PRISM_GUARDED_BY(mu_) = false;
  StreamerStats stats_ PRISM_GUARDED_BY(mu_);
  std::thread prefetcher_;
};

}  // namespace prism

#endif  // PRISM_SRC_STORAGE_LAYER_STREAMER_H_
