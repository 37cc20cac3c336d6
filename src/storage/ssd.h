// SimulatedSsd: file-backed storage with a configurable performance model.
//
// The paper's overlap-window insight (§3.2) hinges on the *ratio* between a
// layer's compute time and the time to load its weights from SSD. This class
// performs real file I/O (so data round-trips are genuine) and then enforces a
// device model on top: a single request queue with fixed per-request latency
// and a bandwidth cap, which is the queue-depth-1 regime a double-buffered
// layer streamer operates in.
//
// The queue is shared at the granularity of a chunk (64 KiB, the analogue of
// an NVMe maximum transfer size), not of a whole transfer. A transfer pays
// the fixed latency once and then reserves the device one chunk at a time,
// each chunk behind whatever the queue already holds. So a small read issued
// during a large one waits for at most one of its chunks, and a lone transfer
// still costs latency + bytes / bandwidth. A read given a cancel flag checks
// it at every chunk boundary: once set, the transfer stops there, returns
// kCancelled, and the device has been charged only for the chunks that ran.
#ifndef PRISM_SRC_STORAGE_SSD_H_
#define PRISM_SRC_STORAGE_SSD_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/common/status.h"

namespace prism {

struct SsdConfig {
  // Sustained throughput of the simulated device. The default approximates a
  // PCIe-4.0 SSD scaled by the same factor as the scaled-down model zoo, so
  // that layer-load / layer-compute ratios match the paper's platforms.
  double bandwidth_bytes_per_sec = 512.0 * 1024 * 1024;
  // Fixed per-request latency (submission + flash access).
  int64_t latency_micros = 80;
  // When false, the device model is bypassed (raw file I/O speed) — useful in
  // unit tests that only care about data integrity.
  bool throttle = true;
};

// A cancelled read counts the bytes its charged chunks moved in `bytes_read`,
// and counts in `cancelled_reads`, not in `read_requests`.
struct SsdStats {
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t read_requests = 0;
  int64_t write_requests = 0;
  int64_t busy_micros = 0;  // Modelled device-busy time.
  int64_t cancelled_reads = 0;
};

class SimulatedSsd {
 public:
  // Opens (creating if necessary) the backing file.
  SimulatedSsd(std::string path, SsdConfig config);
  ~SimulatedSsd();

  SimulatedSsd(const SimulatedSsd&) = delete;
  SimulatedSsd& operator=(const SimulatedSsd&) = delete;

  // A set `*cancel` stops a throttled read at its next chunk boundary with
  // kCancelled; `dest` then holds no defined bytes. An unthrottled read has
  // no chunk boundaries and always completes.
  Status Read(int64_t offset, std::span<uint8_t> dest,
              const std::atomic<bool>* cancel = nullptr);
  Status Write(int64_t offset, std::span<const uint8_t> src);

  // Scattered read submitted as one request: the device model charges the
  // fixed latency once plus bandwidth for the total bytes (NVMe-style queued
  // submission). Used for batched embedding-row fetches (§4.5); Read is its
  // one-range case.
  Status ReadScattered(std::span<const std::pair<int64_t, std::span<uint8_t>>> requests,
                       const std::atomic<bool>* cancel = nullptr);

  // Appends at the current end-of-device offset; returns the offset written.
  Result<int64_t> Append(std::span<const uint8_t> src);

  int64_t SizeBytes() const;
  const SsdConfig& config() const { return config_; }
  SsdStats stats() const;
  const std::string& path() const { return path_; }

 private:
  // Blocks the caller to model `bytes` moving through the device queue, one
  // chunk at a time. Returns the bytes charged: all of them, or fewer when
  // `cancel` was set at a chunk boundary.
  int64_t ChargeTransfer(int64_t bytes, const std::atomic<bool>* cancel);

  std::string path_;
  SsdConfig config_;
  int fd_ = -1;
  mutable Mutex mu_;
  int64_t append_offset_ PRISM_GUARDED_BY(mu_) = 0;
  // Queue model: when the device frees up.
  int64_t device_free_at_micros_ PRISM_GUARDED_BY(mu_) = 0;
  SsdStats stats_ PRISM_GUARDED_BY(mu_);
};

// Creates a unique temp-file path under /tmp for simulated devices.
std::string MakeTempDevicePath(const std::string& tag);

}  // namespace prism

#endif  // PRISM_SRC_STORAGE_SSD_H_
