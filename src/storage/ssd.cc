#include "src/storage/ssd.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>

#include "src/common/check.h"
#include "src/common/timer.h"

namespace prism {

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

Status SimulatedSsd::Read(int64_t offset, std::span<uint8_t> dest) {
  const std::pair<int64_t, std::span<uint8_t>> request(offset, dest);
  return ReadScattered({&request, 1});
}

Status SimulatedSsd::ReadScattered(
    std::span<const std::pair<int64_t, std::span<uint8_t>>> requests) {
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
  ChargeTransfer(total);
  {
    MutexLock lock(mu_);
    stats_.bytes_read += total;
    ++stats_.read_requests;
  }
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
  ChargeTransfer(static_cast<int64_t>(src.size()));
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

void SimulatedSsd::ChargeTransfer(int64_t bytes) {
  if (!config_.throttle) {
    return;
  }
  const int64_t duration =
      config_.latency_micros +
      static_cast<int64_t>(static_cast<double>(bytes) / config_.bandwidth_bytes_per_sec * 1e6);
  int64_t wake_at;
  {
    MutexLock lock(mu_);
    const int64_t now = NowMicros();
    const int64_t start = std::max(now, device_free_at_micros_);
    device_free_at_micros_ = start + duration;
    stats_.busy_micros += duration;
    wake_at = device_free_at_micros_;
  }
  const int64_t now = NowMicros();
  if (wake_at > now) {
    // prism-lint: allow(wall-clock): device-domain throttle. The SSD model
    // stretches *real* I/O to the modelled bandwidth, and real work runs at
    // wall speed even under a SimClock (src/common/clock.h: only waiting is
    // virtualized — simulated runs replace this device with SimulatedRunner
    // charges on the virtual timeline instead).
    std::this_thread::sleep_for(std::chrono::microseconds(wake_at - now));
  }
}

std::string MakeTempDevicePath(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  return "/tmp/prism_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) + ".bin";
}

}  // namespace prism
