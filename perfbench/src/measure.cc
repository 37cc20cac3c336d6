#include "perfbench/src/measure.h"

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0.0;
}

namespace {

// CPU brand string from cpuid (no file read needed).
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) {
    return "unknown";
  }
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  for (char& c : model) {
    if (c == '"' || c == '\\') {
      c = ' ';
    }
  }
  return model;
#else
  return "unknown";
#endif
}

}  // namespace

std::string ProvenanceJson(const std::string& workload, unsigned long long seed, double seconds,
                           bool trace) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"cores\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"}}",
                workload.c_str(), seed, seconds, trace ? 1 : 0,
                std::thread::hardware_concurrency(), CpuModel().c_str(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER);
  return buf;
}

std::string MetricList::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0,
                  metrics_[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

}  // namespace perfbench
