// Cache-line-padded atomic counter cells: the primitive behind ResultCache's
// hot-path counters.
//
// A mutation-heavy counter shared by many client threads has two costs: the
// lock that guards it, and — once the lock is gone — the cache line that
// every fetch_add still bounces between cores. A CounterCell addresses both:
// it is a single relaxed atomic padded to its own cache line, so a struct of
// cells never false-shares between neighbouring counters. Reads across
// cells are a snapshot, not a linearizable total — torn reads across cells
// are possible by design, and consumers must tolerate them.
#ifndef PRISM_SRC_COMMON_STRIPED_H_
#define PRISM_SRC_COMMON_STRIPED_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace prism {

// Destination cache-line size for the cells below. std::hardware_
// destructive_interference_size exists but is unreliably defined across
// toolchains (and tying ABI to a -mtune flag is worse); 64 bytes is right
// for every x86-64 and most AArch64 parts.
inline constexpr size_t kCacheLineBytes = 64;

// One integral counter on its own cache line. Relaxed everywhere: these are
// statistics, ordered against nothing; cross-cell snapshots may tear.
struct alignas(kCacheLineBytes) CounterCell {
  std::atomic<int64_t> value{0};

  void Add(int64_t delta) { value.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Load() const { return value.load(std::memory_order_relaxed); }
};

}  // namespace prism

#endif  // PRISM_SRC_COMMON_STRIPED_H_
