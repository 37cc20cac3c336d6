// Process-level measurements and result formatting for perfbench.
#ifndef PERFBENCH_SRC_MEASURE_H_
#define PERFBENCH_SRC_MEASURE_H_

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Process user+sys CPU time (getrusage) in seconds.
double ProcessCpuSeconds();

// Resets the process's peak resident set to its current size (writes 5 to
// /proc/self/clear_refs); false when the kernel refuses.
bool ResetPeakRss();
// VmHWM of this process in MiB (0 when unreadable).
double PeakRssMiB();

// Host and build provenance: cores, CPU model, build type, compiler.
std::string ProvenanceJson(const std::string& workload, unsigned long long seed,
                           double seconds, bool trace);

// An ordered list of named metrics, printed as the result's "metrics" object.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& items() const { return metrics_; }

  // {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MEASURE_H_
