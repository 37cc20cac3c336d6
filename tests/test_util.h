// Shared helpers for the test suite: tiny models, fast (unthrottled) device
// profiles, canned rerank requests, and the quantisation error bound.
#ifndef PRISM_TESTS_TEST_UTIL_H_
#define PRISM_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <string>

#include "src/data/dataset.h"
#include "src/model/config.h"
#include "src/model/synthetic.h"
#include "src/runtime/device.h"
#include "src/runtime/runner.h"
#include "src/tensor/quant.h"

namespace prism {

// Device profile with the SSD model disabled — tests that don't measure
// timing shouldn't pay simulated I/O waits.
inline DeviceProfile FastDevice() {
  DeviceProfile device = NvidiaProfile();
  device.ssd.throttle = false;
  device.compute_slowdown = 1.0;
  return device;
}

// A throttled but quick device for timing-sensitive tests.
inline DeviceProfile SlowSsdDevice(double bytes_per_sec, int64_t latency_micros = 50) {
  DeviceProfile device = NvidiaProfile();
  device.ssd.bandwidth_bytes_per_sec = bytes_per_sec;
  device.ssd.latency_micros = latency_micros;
  return device;
}

inline std::string TestCheckpoint(const ModelConfig& config,
                                  Precision precision = Precision::kFp32, uint64_t seed = 99) {
  return EnsureCheckpoint(config, seed, precision);
}

inline RerankRequest TestRequest(const ModelConfig& config, size_t n_candidates = 12,
                                 size_t k = 3, size_t query_index = 0,
                                 const char* dataset = "wikipedia") {
  const SyntheticDataset data(DatasetByName(dataset), config, 1234);
  return RerankRequest::FromQuery(data.MakeQuery(query_index, n_candidates), k);
}

// Largest per-group scale of an int8 or w4 encoding ([values][scales]).
// Both tiers round to nearest on a symmetric grid, so every decoded value
// lies within half of it.
inline float MaxGroupScale(Precision precision, const uint8_t* encoded, size_t rows, size_t cols,
                           size_t group_size) {
  const size_t count = rows * (cols / group_size);
  const auto* scales = reinterpret_cast<const float*>(
      encoded + MatrixSpanBytes(precision, rows, cols, group_size) - count * sizeof(float));
  return *std::max_element(scales, scales + count);
}

}  // namespace prism

#endif  // PRISM_TESTS_TEST_UTIL_H_
