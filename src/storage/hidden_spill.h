// Dynamic hidden-state offloading (paper §4.3, lower half of Fig. 6).
//
// When the candidate count scales, the aggregated hidden states of all chunks
// become the memory bottleneck. SpillPool writes a chunk's hidden-state tensor
// to the simulated SSD (releasing its memory), and prefetches it back before
// the chunk is next computed, so that at most three chunks are resident: one
// computing, one offloading, one prefetching.
//
// Thread-safe under disjoint keys: one pool is shared by every request in
// flight through the engine, and callers keep their keys disjoint
// (RequestContext::SpillKey namespaces chunk keys by request id). The entry
// map is mutex-guarded, but waits on a key's in-flight I/O happen *outside*
// the lock — one request's device-speed spill never stalls another's. Using
// the same key from two threads concurrently is undefined.
//
// Take() and Drop() erase the consumed entry, so the map stays bounded in
// the number of live chunks. They also wait out the entry's I/O, so they
// hand its extent of the spill file to the next spill that fits (smallest
// fit, never split). The file grows only when no free extent fits, so a
// service repeating its chunk shapes stops growing after its first
// requests; the file is deleted when the pool is destroyed.
#ifndef PRISM_SRC_STORAGE_HIDDEN_SPILL_H_
#define PRISM_SRC_STORAGE_HIDDEN_SPILL_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/storage/ssd.h"
#include "src/tensor/tensor.h"

namespace prism {

class SpillPool {
 public:
  // Spilled data lives in a dedicated temp file behind its own device handle
  // (sharing the weight device would let spill traffic and weight prefetch
  // contend, which is realistic — pass the same SimulatedSsd for that).
  explicit SpillPool(SsdConfig config, MemoryTracker* tracker = &MemoryTracker::Global());
  ~SpillPool();

  SpillPool(const SpillPool&) = delete;
  SpillPool& operator=(const SpillPool&) = delete;

  // Asynchronously writes `t` out and drops it from memory. Blocks only if a
  // previous spill of the same key is still in flight.
  void SpillAsync(int64_t key, Tensor t);

  // Starts reading the tensor for `key` back into memory.
  void PrefetchAsync(int64_t key);

  // Returns the tensor for `key`, blocking on any in-flight I/O. The entry is
  // consumed (a later Spill of the same key re-creates it).
  Tensor Take(int64_t key);

  // Discards `key` without reading it back (waits out any in-flight I/O and
  // releases the entry — used for chunks still parked on disk when pruning
  // terminates a request early). No-op if the key is absent.
  void Drop(int64_t key);

  // Size of the spill file, not the bytes parked now.
  int64_t bytes_on_disk() const;

  // Entries currently parked (spilled but not yet taken or dropped). A
  // healthy service returns to 0 between requests; tests use this to prove
  // early termination and fault paths do not leak chunks.
  size_t live_entries() const;

 private:
  struct Entry {
    int64_t offset = 0;
    int64_t extent = 0;  // Bytes of the file the entry owns; may exceed its tensor.
    size_t rows = 0;
    size_t cols = 0;
    std::future<void> spill_done;
    std::optional<Tensor> prefetched;
    std::future<void> prefetch_done;
  };

  // Looks up (or creates) the entry for `key`. Entry field access outside
  // mu_ is safe because keys are single-owner; mu_ only guards the map.
  Entry* FindEntry(int64_t key);
  static void WaitSpill(Entry& entry);
  // Waits out `key`'s I/O, then erases it and frees its extent.
  void EraseEntry(int64_t key, Entry& entry);

  std::unique_ptr<SimulatedSsd> ssd_;
  MemoryTracker* tracker_;
  mutable Mutex mu_;
  // The map structure is guarded; the Entry values a FindEntry pointer leads
  // to are deliberately NOT — each key has a single owner (see file comment),
  // so entry-field access happens outside the lock by design.
  std::map<int64_t, Entry> entries_ PRISM_GUARDED_BY(mu_);
  // Extents no entry owns, length → offset.
  std::multimap<int64_t, int64_t> free_ PRISM_GUARDED_BY(mu_);
  int64_t cursor_ PRISM_GUARDED_BY(mu_) = 0;  // End of the file.
  std::string path_;
};

}  // namespace prism

#endif  // PRISM_SRC_STORAGE_HIDDEN_SPILL_H_
