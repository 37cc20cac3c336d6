#include "bench/bench_util.h"

#include <cstdio>

#include <sstream>

#include "src/model/layer.h"
#include "src/model/pair_encoder.h"

namespace prism {

int64_t VramBudgetBytes(const DeviceProfile& device) {
  // Scaled equivalents of 8 GiB VRAM (nvidia) / 16 GiB unified (apple): set
  // so the 0.6B/MiniCPM/M3 proxies fit with headroom and the 4B/8B proxies
  // exceed it — the paper's OOM boundary (Table 3).
  return device.name == "apple" ? 38 * 1024 * 1024 : 36 * 1024 * 1024;
}

int64_t EstimateHfPeakBytes(const ModelConfig& config, const DeviceProfile& device,
                            size_t n_candidates, size_t seq_len, Precision precision) {
  const size_t batch = std::min(device.hf_batch_size, n_candidates);
  int64_t bytes = static_cast<int64_t>(config.n_layers * LayerBlobBytes(config, precision));
  bytes += static_cast<int64_t>(config.EmbeddingBlobBytes());
  bytes += LayerScratch::BytesFor(config, batch * seq_len, seq_len, 1);
  bytes += static_cast<int64_t>(batch * seq_len * config.hidden * sizeof(float));
  return bytes;
}

std::unique_ptr<Runner> MakeHf(const ModelConfig& config, const DeviceProfile& device,
                               Precision precision) {
  HfRunnerOptions options;
  options.device = device;
  options.precision = precision;
  return std::make_unique<HfRunner>(config, EnsureCheckpoint(config, kBenchSeed, precision),
                                    options);
}

std::unique_ptr<Runner> MakeOffload(const ModelConfig& config, const DeviceProfile& device,
                                    Precision precision) {
  HfRunnerOptions options;
  options.device = device;
  options.precision = precision;
  options.offload = true;
  return std::make_unique<HfRunner>(config, EnsureCheckpoint(config, kBenchSeed, precision),
                                    options);
}

std::unique_ptr<PrismEngine> MakePrism(const ModelConfig& config, const DeviceProfile& device,
                                       float threshold, Precision precision) {
  PrismOptions options;
  options.device = device;
  options.dispersion_threshold = threshold;
  options.precision = precision;
  return MakePrismWith(config, options);
}

std::unique_ptr<PrismEngine> MakePrismWith(const ModelConfig& config, PrismOptions options) {
  return std::make_unique<PrismEngine>(
      config, EnsureCheckpoint(config, kBenchSeed, options.precision), options);
}

std::vector<BenchCase> MakeCases(const ModelConfig& config, const std::string& dataset,
                                 size_t queries, size_t candidates, size_t k) {
  const SyntheticDataset data(DatasetByName(dataset), config, kDataSeed);
  std::vector<BenchCase> cases;
  for (size_t i = 0; i < queries; ++i) {
    const RerankQuery q = data.MakeQuery(i, candidates);
    BenchCase bench_case;
    bench_case.request = RerankRequest::FromQuery(q, k);
    bench_case.relevant = q.relevant;
    cases.push_back(std::move(bench_case));
  }
  return cases;
}

BenchRun RunCases(Runner* runner, const std::vector<BenchCase>& cases) {
  BenchRun run;
  MemoryTracker& tracker = MemoryTracker::Global();
  for (const BenchCase& bench_case : cases) {
    const RerankResult result = runner->Rerank(bench_case.request);
    run.mean_latency_ms += result.stats.latency_ms;
    run.mean_precision += PrecisionAtK(result.topk, bench_case.relevant, bench_case.request.k);
    run.mean_candidate_layers += static_cast<double>(result.stats.candidate_layers);
    run.io_stall_ms += result.stats.io_stall_ms;
    run.topks.push_back(result.topk);
  }
  const auto n = static_cast<double>(cases.size());
  run.mean_latency_ms /= n;
  run.mean_precision /= n;
  run.mean_candidate_layers /= n;
  run.io_stall_ms /= n;
  run.peak_mib = MiB(tracker.PeakTotal());
  run.avg_mib = MiB(static_cast<int64_t>(tracker.AverageTotal()));
  return run;
}

double MiB(int64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> items;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      items.push_back(item);
    }
  }
  return items;
}

void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace prism
