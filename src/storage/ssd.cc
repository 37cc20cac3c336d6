#include "src/storage/ssd.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>

#include "src/common/check.h"
#include "src/common/timer.h"

namespace prism {

namespace {

// The device queue is re-reserved at this granularity (see ssd.h).
constexpr int64_t kChunkBytes = 64 * 1024;

}  // namespace

SimulatedSsd::SimulatedSsd(std::string path, SsdConfig config)
    : path_(std::move(path)), config_(config) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  PRISM_CHECK_MSG(fd_ >= 0, path_.c_str());
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  PRISM_CHECK_GE(end, 0);
  append_offset_ = static_cast<int64_t>(end);
}

SimulatedSsd::~SimulatedSsd() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status SimulatedSsd::Read(int64_t offset, std::span<uint8_t> dest,
                          const std::atomic<bool>* cancel) {
  const std::pair<int64_t, std::span<uint8_t>> request(offset, dest);
  return ReadScattered({&request, 1}, cancel);
}

Status SimulatedSsd::ReadScattered(
    std::span<const std::pair<int64_t, std::span<uint8_t>>> requests,
    const std::atomic<bool>* cancel) {
  int64_t total = 0;
  for (const auto& [offset, dest] : requests) {
    size_t done = 0;
    while (done < dest.size()) {
      const ssize_t n = ::pread(fd_, dest.data() + done, dest.size() - done,
                                static_cast<off_t>(offset + done));
      if (n < 0) {
        return Status::IoError(std::string("pread: ") + std::strerror(errno));
      }
      if (n == 0) {
        return Status::OutOfRange("read past end of device");
      }
      done += static_cast<size_t>(n);
    }
    total += static_cast<int64_t>(dest.size());
  }
  const int64_t charged = ChargeTransfer(total, cancel);
  MutexLock lock(mu_);
  stats_.bytes_read += charged;
  if (charged < total) {
    ++stats_.cancelled_reads;
    return Status::Cancelled("read cancelled after " + std::to_string(charged) + " of " +
                             std::to_string(total) + " bytes");
  }
  ++stats_.read_requests;
  return Status::Ok();
}

Status SimulatedSsd::Write(int64_t offset, std::span<const uint8_t> src) {
  size_t done = 0;
  while (done < src.size()) {
    const ssize_t n = ::pwrite(fd_, src.data() + done, src.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      return Status::IoError(std::string("pwrite: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  ChargeTransfer(static_cast<int64_t>(src.size()), nullptr);
  {
    MutexLock lock(mu_);
    stats_.bytes_written += static_cast<int64_t>(src.size());
    ++stats_.write_requests;
    append_offset_ = std::max(append_offset_, offset + static_cast<int64_t>(src.size()));
  }
  return Status::Ok();
}

Result<int64_t> SimulatedSsd::Append(std::span<const uint8_t> src) {
  int64_t offset;
  {
    MutexLock lock(mu_);
    offset = append_offset_;
    append_offset_ += static_cast<int64_t>(src.size());
  }
  PRISM_RETURN_IF_ERROR(Write(offset, src));
  return offset;
}

int64_t SimulatedSsd::SizeBytes() const {
  MutexLock lock(mu_);
  return append_offset_;
}

SsdStats SimulatedSsd::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

int64_t SimulatedSsd::ChargeTransfer(int64_t bytes, const std::atomic<bool>* cancel) {
  if (!config_.throttle) {
    return bytes;
  }
  // Chunk durations are differences of the cumulative transfer time, so they
  // sum to exactly the unchunked latency + bytes / bandwidth.
  const auto micros_for = [this](int64_t n) {
    return static_cast<int64_t>(static_cast<double>(n) / config_.bandwidth_bytes_per_sec * 1e6);
  };
  int64_t done = 0;
  int64_t chunk_end = 0;
  do {
    if (cancel != nullptr && cancel->load()) {
      return done;
    }
    const int64_t chunk = std::min(kChunkBytes, bytes - done);
    int64_t duration = micros_for(done + chunk) - micros_for(done);
    {
      MutexLock lock(mu_);
      int64_t start;
      if (done == 0) {
        duration += config_.latency_micros;
        start = std::max(NowMicros(), device_free_at_micros_);
      } else {
        // A continuing chunk follows its predecessor, not the host's wake-up,
        // so oversleeping is not charged to the device.
        start = std::max(chunk_end, device_free_at_micros_);
      }
      chunk_end = start + duration;
      device_free_at_micros_ = chunk_end;
      stats_.busy_micros += duration;
    }
    done += chunk;
    const int64_t now = NowMicros();
    if (chunk_end > now) {
      // prism-lint: allow(wall-clock): device-domain throttle. The SSD model
      // stretches *real* I/O to the modelled bandwidth, and real work runs at
      // wall speed even under a SimClock (src/common/clock.h: only waiting is
      // virtualized — simulated runs replace this device with SimulatedRunner
      // charges on the virtual timeline instead).
      std::this_thread::sleep_for(std::chrono::microseconds(chunk_end - now));
    }
  } while (done < bytes);
  return bytes;
}

std::string MakeTempDevicePath(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  return "/tmp/prism_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) + ".bin";
}

}  // namespace prism
