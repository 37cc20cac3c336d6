// Continuous batching: one request at a time vs. the layer carousel.
//
// Two traffic shapes, each run once per scheduler:
//
//  - staggered: open-loop arrivals, one request every --stagger_us. This is
//    the regime the carousel targets: requests trickle in while earlier ones
//    are in flight or just finished. The serial scheduler opens a fresh
//    terminating pass per request, so each arrival pays the first-fetch
//    stall; the carousel admits at warm layer-0 boundaries (the cyclic
//    stream keeps layer 0 resident for the whole pass and prefetches layers 1
//    and 2 across the wrap, and a drained pass lingers warm), so
//    time-to-first-layer collapses to the embed.
//  - burst: closed-loop, --clients threads hammering the service. Measures
//    aggregate req/s and mean latency when sharing each layer fetch, not
//    admission, is the bottleneck. The carousel answers a pruned request
//    mid-cycle; that client's next request then waits for the next layer-0
//    boundary, which is where the burst p99 tail comes from.
//
// Time-to-first-layer (ttfl) = RerankStats::queue_wait_ms (queueing until
// admission) + first_layer_ms (embed + wait for layer-0 weights). Results
// are bit-identical across schedulers (checked against a serial reference),
// so the comparison is pure scheduling.
//
// Flags: --model=Qwen3-Reranker-0.6B|test-decoder --device=nvidia|apple
//        --staggered_requests=20 --stagger_us=700000
//        --clients=8 --burst_requests=48 --candidates=4 --k=2
//        --max_inflight=4 --compute_threads=0 --threshold=0.40
#include <cstdio>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/percentile.h"
#include "src/core/service.h"

namespace prism {
namespace {

struct LoadRun {
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;
  double mean_ms = 0.0;  // Client-observed latency.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double ttfl_p50_ms = 0.0;  // Time-to-first-layer.
  double ttfl_p99_ms = 0.0;
  std::vector<std::vector<size_t>> topks;
};

LoadRun Summarize(const WallTimer& wall, std::vector<std::vector<size_t>> topks,
                  std::vector<double> latencies, std::vector<double> waits) {
  LoadRun run;
  run.wall_seconds = wall.ElapsedSeconds();
  run.requests_per_sec = static_cast<double>(topks.size()) / run.wall_seconds;
  double total_ms = 0.0;
  for (const double latency : latencies) {
    total_ms += latency;
  }
  run.mean_ms = latencies.empty() ? 0.0 : total_ms / static_cast<double>(latencies.size());
  std::sort(latencies.begin(), latencies.end());
  std::sort(waits.begin(), waits.end());
  run.p50_ms = PercentileOverSorted(latencies, 50.0);
  run.p99_ms = PercentileOverSorted(latencies, 99.0);
  run.ttfl_p50_ms = PercentileOverSorted(waits, 50.0);
  run.ttfl_p99_ms = PercentileOverSorted(waits, 99.0);
  run.topks = std::move(topks);
  return run;
}

// Open loop: request i is submitted at t0 + i * stagger, regardless of how
// earlier requests are doing (one thread per request). One warmup request
// first, excluded from every reported number (latency percentiles are
// measured client-side here, not read from the ServiceStats ring), so
// percentiles reflect the steady state rather than the very first spin-up
// (which is cold for both schedulers).
LoadRun RunStaggered(RerankService* service, const std::vector<BenchCase>& cases,
                     size_t total_requests, int64_t stagger_us) {
  service->Rerank(cases[0].request);
  std::vector<std::vector<size_t>> topks(total_requests);
  std::vector<double> latencies(total_requests, 0.0);
  std::vector<double> waits(total_requests, 0.0);
  const WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(total_requests);
  for (size_t i = 0; i < total_requests; ++i) {
    threads.emplace_back([&, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(stagger_us * static_cast<int64_t>(i)));
      const WallTimer observed;
      const RerankResult result = service->Rerank(cases[i % cases.size()].request);
      latencies[i] = observed.ElapsedMillis();
      topks[i] = result.topk;
      waits[i] = result.stats.queue_wait_ms + result.stats.first_layer_ms;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return Summarize(wall, std::move(topks), std::move(latencies), std::move(waits));
}

// Closed loop: `clients` threads submit back to back until the request
// budget is exhausted.
LoadRun RunBurst(RerankService* service, const std::vector<BenchCase>& cases, size_t clients,
                 size_t total_requests) {
  std::vector<std::vector<size_t>> topks(total_requests);
  std::vector<double> latencies(total_requests, 0.0);
  std::vector<double> waits(total_requests, 0.0);
  std::atomic<size_t> next{0};
  const WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      size_t i;
      while ((i = next.fetch_add(1)) < total_requests) {
        const WallTimer observed;
        const RerankResult result = service->Rerank(cases[i % cases.size()].request);
        latencies[i] = observed.ElapsedMillis();
        topks[i] = result.topk;
        waits[i] = result.stats.queue_wait_ms + result.stats.first_layer_ms;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return Summarize(wall, std::move(topks), std::move(latencies), std::move(waits));
}

void PrintTableHeader() {
  std::printf("%-26s %8s %10s %9s %9s %9s %12s %12s\n", "scheduler", "wall s", "req/s",
              "mean ms", "p50 ms", "p99 ms", "ttfl p50 ms", "ttfl p99 ms");
}

void PrintRow(const std::string& name, const LoadRun& run) {
  std::printf("%-26s %8.2f %10.2f %9.2f %9.2f %9.2f %12.2f %12.2f\n", name.c_str(),
              run.wall_seconds, run.requests_per_sec, run.mean_ms, run.p50_ms, run.p99_ms,
              run.ttfl_p50_ms, run.ttfl_p99_ms);
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string model_name = flags.GetString("model", "Qwen3-Reranker-0.6B");
  // The 4-layer test model makes a seconds-long smoke run.
  const ModelConfig model = model_name == "test-decoder" ? TestModel() : ModelByName(model_name);
  const DeviceProfile device = DeviceByName(flags.GetString("device", "nvidia"));
  const size_t staggered_requests = static_cast<size_t>(flags.GetInt("staggered_requests", 20));
  const int64_t stagger_us = flags.GetInt("stagger_us", 700000);
  const size_t clients = static_cast<size_t>(flags.GetInt("clients", 8));
  const size_t burst_requests = static_cast<size_t>(flags.GetInt("burst_requests", 48));
  const size_t candidates = static_cast<size_t>(flags.GetInt("candidates", 4));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 2));
  const size_t max_inflight = static_cast<size_t>(flags.GetInt("max_inflight", 4));
  const size_t compute_threads = static_cast<size_t>(flags.GetInt("compute_threads", 0));
  const float threshold = static_cast<float>(flags.GetDouble("threshold", kThresholdHigh));

  PrintHeader("Continuous batching — serial vs. layer carousel (" + model.name + ", " +
              device.name + ", max_inflight " + std::to_string(max_inflight) + ")");

  const auto cases = MakeCases(model, "wikipedia", /*queries=*/8, candidates, k);
  const std::string checkpoint = EnsureCheckpoint(model, kBenchSeed);

  // Serial reference for the correctness cross-check.
  std::vector<std::vector<size_t>> reference(cases.size());
  {
    MemoryTracker::Global().Reset();
    ServiceOptions options;
    options.engine.device = device;
    options.engine.dispersion_threshold = threshold;
    RerankService service(model, checkpoint, options);
    for (size_t i = 0; i < cases.size(); ++i) {
      reference[i] = service.Rerank(cases[i].request).topk;
    }
  }

  auto make_service = [&](SchedulerKind kind) {
    MemoryTracker::Global().Reset();
    ServiceOptions options;
    options.engine.device = device;
    options.engine.dispersion_threshold = threshold;
    options.scheduler = kind;
    options.max_inflight = kind == SchedulerKind::kSerial ? 1 : max_inflight;
    options.compute_threads = compute_threads;
    // Keep the carousel warm across the staggered gaps; the cost is two
    // layer blobs resident while idle (the pinned layer 0 and layer 1).
    options.carousel_linger_ms = 2000.0;
    return std::make_unique<RerankService>(model, checkpoint, options);
  };

  size_t mismatches = 0;
  auto check = [&](const LoadRun& run) {
    for (size_t i = 0; i < run.topks.size(); ++i) {
      if (run.topks[i] != reference[i % cases.size()]) {
        ++mismatches;
      }
    }
  };

  std::printf("staggered arrivals — open loop, 1 request per %.0f ms, %zu requests\n",
              static_cast<double>(stagger_us) / 1000.0, staggered_requests);
  PrintTableHeader();
  LoadRun stag_serial;
  LoadRun stag_carousel;
  {
    auto service = make_service(SchedulerKind::kSerial);
    stag_serial = RunStaggered(service.get(), cases, staggered_requests, stagger_us);
    PrintRow("serial", stag_serial);
    check(stag_serial);
  }
  {
    auto service = make_service(SchedulerKind::kCarousel);
    stag_carousel = RunStaggered(service.get(), cases, staggered_requests, stagger_us);
    PrintRow("carousel", stag_carousel);
    check(stag_carousel);
  }

  std::printf("\nburst — closed loop, %zu clients, %zu requests\n", clients, burst_requests);
  PrintTableHeader();
  LoadRun burst_serial;
  LoadRun burst_carousel;
  {
    auto service = make_service(SchedulerKind::kSerial);
    burst_serial = RunBurst(service.get(), cases, clients, burst_requests);
    PrintRow("serial", burst_serial);
    check(burst_serial);
  }
  {
    auto service = make_service(SchedulerKind::kCarousel);
    burst_carousel = RunBurst(service.get(), cases, clients, burst_requests);
    PrintRow("carousel", burst_carousel);
    check(burst_carousel);
  }

  std::printf("\ncarousel vs serial — burst req/s: %.2fx   staggered p99 ttfl: %.2fx lower\n",
              burst_carousel.requests_per_sec / burst_serial.requests_per_sec,
              stag_serial.ttfl_p99_ms / std::max(stag_carousel.ttfl_p99_ms, 1e-9));
  std::printf("result mismatches vs serial: %zu (expected 0)\n", mismatches);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace prism

int main(int argc, char** argv) { return prism::Main(argc, argv); }
