// perfbench: the repository's end-to-end benchmark for on-device top-K
// selection. One invocation runs one named workload for a fixed time against
// the public serving stack, checks every served selection against a
// single-caller serial reference, and prints its metrics; the last line of
// stdout is the result object.
//
//   perfbench --workload select_ssd|select_int8_x4|rag_closed|rag_open --seed N
//             --seconds S --trace 0|1 [--ckpt-dir DIR] [--trace-out PATH]
//             [--model test] [--requests N]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every call the benchmark makes into the program and prints the per-layer
// metrics instead (see perfbench/README.md for both lists and for why each
// workload exists). --model test swaps in the 4-layer test model and
// --requests caps closed loops at N measured requests (the self-test).
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/kernels.h"
#include "perfbench/src/loadgen.h"
#include "perfbench/src/measure.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stage_driver.h"
#include "src/common/memory_tracker.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/core/engine.h"
#include "src/core/scheduler.h"
#include "src/core/service.h"
#include "src/data/dataset.h"
#include "src/data/metrics.h"
#include "src/model/pair_encoder.h"
#include "src/model/synthetic.h"
#include "src/runtime/device.h"
#include "src/serving/result_cache.h"
#include "src/serving/workload.h"

namespace perfbench {
namespace {

using prism::MemCategory;
using prism::MemoryTracker;
using prism::ModelConfig;
using prism::Precision;
using prism::PrismEngine;
using prism::PrismOptions;
using prism::RerankRequest;
using prism::RerankResult;
using prism::RerankStats;
using prism::SchedulerKind;

constexpr uint64_t kCheckpointSeed = 42;
constexpr uint64_t kPoolSeed = 7;  // Content of the selection pools.
constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Workloads. Every field is fixed here, so a run is a function of the
// workload name and the seed alone.

enum class Kind { kSelect, kRag };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  size_t callers;  // Closed-loop callers, or open-loop sender threads.
  SchedulerKind scheduler;
  size_t max_inflight;
  Precision precision;
  double ssd_mib_per_s;
  double slo_ms;  // Fixed latency limit for slo_attainment.
  // Selections (kSelect): a fixed pool of distinct selections.
  size_t pool;
  size_t candidates;
  size_t k;
  size_t warmup_per_caller;
  double think_ms;
  // Scenario traffic (kRag).
  double arrival_hz;
  size_t n_queries;
  double zipf;
  size_t cache_capacity;
  double warmup_s;
};

const WorkloadSpec kWorkloads[] = {
    {.name = "select_ssd",
     .kind = Kind::kSelect,
     .callers = 1,
     .scheduler = SchedulerKind::kAuto,
     .max_inflight = 1,
     .precision = Precision::kFp32,
     .ssd_mib_per_s = 20.0,
     .slo_ms = 1000.0,
     .pool = 24,
     .candidates = 6,
     .k = 3,
     .warmup_per_caller = 2,
     .think_ms = 0.0,
     .arrival_hz = 0.0,
     .n_queries = 0,
     .zipf = 0.0,
     .cache_capacity = 0,
     .warmup_s = 0.0},
    {.name = "select_int8_x4",
     .kind = Kind::kSelect,
     .callers = 4,
     .scheduler = SchedulerKind::kCarousel,
     .max_inflight = 4,
     .precision = Precision::kInt8,
     .ssd_mib_per_s = 40.0,
     .slo_ms = 3000.0,
     .pool = 24,
     .candidates = 16,
     .k = 3,
     .warmup_per_caller = 1,
     .think_ms = 30.0,
     .arrival_hz = 0.0,
     .n_queries = 0,
     .zipf = 0.0,
     .cache_capacity = 0,
     .warmup_s = 0.0},
    {.name = "rag_open",
     .kind = Kind::kRag,
     .callers = 4,
     .scheduler = SchedulerKind::kCarousel,
     .max_inflight = 4,
     .precision = Precision::kFp32,
     .ssd_mib_per_s = 40.0,
     .slo_ms = 400.0,
     .pool = 0,
     .candidates = 0,
     .k = 4,
     .warmup_per_caller = 0,
     .think_ms = 0.0,
     .arrival_hz = 6.0,
     .n_queries = 64,
     .zipf = 0.9,
     .cache_capacity = 8,
     .warmup_s = 2.0},
    {.name = "rag_closed",
     .kind = Kind::kRag,
     .callers = 4,
     .scheduler = SchedulerKind::kCarousel,
     .max_inflight = 4,
     .precision = Precision::kFp32,
     .ssd_mib_per_s = 40.0,
     .slo_ms = 400.0,
     .pool = 0,
     .candidates = 0,
     .k = 4,
     .warmup_per_caller = 2,
     .think_ms = 100.0,
     .arrival_hz = 0.0,
     .n_queries = 64,
     .zipf = 0.9,
     .cache_capacity = 8,
     .warmup_s = 0.0},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string ckpt_dir = ".bench_build/ckpt";
  std::string trace_out;
  bool test_model = false;
  size_t requests = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args->workload = value;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--trace") {
        args->trace = std::stoi(value) != 0;
      } else if (key == "--ckpt-dir") {
        args->ckpt_dir = value;
      } else if (key == "--trace-out") {
        args->trace_out = value;
      } else if (key == "--model") {
        if (value != "test" && value != "0.6b") {
          std::fprintf(stderr, "unknown --model %s (want 0.6b|test)\n", value.c_str());
          return false;
        }
        args->test_model = value == "test";
      } else if (key == "--requests") {
        args->requests = std::stoul(value);
      } else {
        std::fprintf(stderr, "unknown flag %s\n", key.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(), value.c_str());
      return false;
    }
  }
  if (FindWorkload(args->workload) == nullptr || !have_seed || !(args->seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload select_ssd|select_int8_x4|rag_closed|rag_open "
                 "--seed N --seconds S --trace 0|1\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Set-up helpers.

// Generates the checkpoint once per directory; later runs reuse the file.
// Written under a pid-unique name and published with rename().
std::string EnsureCheckpointIn(const std::string& dir, const ModelConfig& model,
                               Precision precision) {
  std::string name = model.name;
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) {
      ch = '_';
    }
  }
  const std::string path = dir + "/" + name + "_" + std::to_string(kCheckpointSeed) + "." +
                           prism::PrecisionName(precision) + ".bin";
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 && st.st_size > 0) {
    return path;
  }
  std::filesystem::create_directories(dir);
  const std::string tmp = path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const prism::Status status = prism::GenerateCheckpoint(model, kCheckpointSeed, tmp, precision);
  if (!status.ok() || std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot write checkpoint " + path + ": " + status.ToString());
  }
  return path;
}

prism::DeviceProfile DeviceFor(const WorkloadSpec& spec) {
  prism::DeviceProfile device = prism::NvidiaProfile();
  device.ssd.bandwidth_bytes_per_sec = spec.ssd_mib_per_s * kMiB;
  return device;
}

prism::ServiceOptions ServiceOptionsFor(const WorkloadSpec& spec) {
  prism::ServiceOptions options;
  options.engine.device = DeviceFor(spec);
  options.engine.precision = spec.precision;
  options.scheduler = spec.scheduler;
  options.max_inflight = spec.max_inflight;
  return options;
}

// The reference engine: same options, unthrottled device (the throttle
// changes timing only).
PrismOptions ReferenceOptions(const WorkloadSpec& spec) {
  PrismOptions options = ServiceOptionsFor(spec).engine;
  options.device.ssd.throttle = false;
  return options;
}

bool SameSelection(const RerankResult& a, const RerankResult& b) {
  return a.status.ok() && b.status.ok() && a.topk == b.topk &&
         a.scores.size() == b.scores.size() &&
         std::memcmp(a.scores.data(), b.scores.data(), a.scores.size() * sizeof(float)) == 0;
}

// Runs fn(engine, i) for i in [0, n) on up to `threads` threads, each with
// its own serial engine and memory tracker.
template <typename Fn>
void ForEachOnReferenceEngines(const ModelConfig& model, const std::string& checkpoint,
                               const PrismOptions& options, size_t n, const Fn& fn) {
  const size_t threads =
      std::min<size_t>(n, std::max<size_t>(1, std::thread::hardware_concurrency()));
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      MemoryTracker tracker;
      PrismEngine engine(model, checkpoint, options, &tracker);
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(engine, i);
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
}

// ---------------------------------------------------------------------------
// Instrumentation between the layers: Runner wrappers that time the calls
// and log the engine passes of measured requests.

thread_local bool tls_measured = false;
thread_local size_t tls_reranks = 0;

struct EnginePass {
  RerankStats stats;
  size_t candidates = 0;
  size_t seq_len = 0;
  std::optional<RerankRequest> request;  // Kept in traced runs for replay.
};

class PassLog {
 public:
  void Add(EnginePass pass) {
    const std::lock_guard<std::mutex> lock(mu_);
    passes_.push_back(std::move(pass));
  }
  std::vector<EnginePass> Take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(passes_);
  }

 private:
  std::mutex mu_;
  std::vector<EnginePass> passes_;
};

// Wraps RerankService::Rerank: one engine pass per call.
class ServiceProbe final : public prism::Runner {
 public:
  ServiceProbe(prism::Runner* inner, const ModelConfig& model, PassLog* log)
      : inner_(inner), model_(model), log_(log) {}

  RerankResult Rerank(const RerankRequest& request) override {
    RerankResult result;
    {
      const ScopedSpan span("service.rerank");
      result = inner_->Rerank(request);
    }
    if (tls_measured && result.status.ok()) {
      EnginePass pass;
      pass.stats = result.stats;
      pass.candidates = request.docs.size();
      pass.seq_len = prism::ChooseSeqLen(model_, request.query, request.docs);
      if (SpansEnabled()) {
        pass.request = request;
      }
      log_->Add(std::move(pass));
    }
    return result;
  }
  std::string name() const override { return inner_->name(); }

 private:
  prism::Runner* inner_;
  ModelConfig model_;
  PassLog* log_;
};

// Wraps ResultCache::Rerank: every rerank an app request issues.
class CacheProbe final : public prism::Runner {
 public:
  explicit CacheProbe(prism::Runner* inner) : inner_(inner) {}

  RerankResult Rerank(const RerankRequest& request) override {
    ++tls_reranks;
    const ScopedSpan span("cache.rerank");
    return inner_->Rerank(request);
  }
  std::string name() const override { return inner_->name(); }

 private:
  prism::Runner* inner_;
};

// ---------------------------------------------------------------------------
// The serving stack under test.

struct Stack {
  std::unique_ptr<prism::ScenarioHarness> harness;  // kRag only.
  std::unique_ptr<prism::RerankService> service;
  std::unique_ptr<ServiceProbe> service_probe;
  std::unique_ptr<prism::ResultCache> cache;  // kRag only.
  std::unique_ptr<CacheProbe> cache_probe;

  // What the load generator calls into.
  prism::Runner* front() {
    return cache_probe != nullptr ? static_cast<prism::Runner*>(cache_probe.get())
                                  : static_cast<prism::Runner*>(service_probe.get());
  }
};

// The corpus and its indexes are fixed (the scenario's default seed); the
// run seed decides the traffic over them, as RunWorkload's seed does.
prism::ScenarioOptions ScenarioOptionsFor(const WorkloadSpec& spec) {
  prism::ScenarioOptions options;
  options.n_queries = spec.n_queries;
  options.k = spec.k;
  return options;
}

Stack BuildStack(const WorkloadSpec& spec, const ModelConfig& model,
                 const std::string& checkpoint, PassLog* log) {
  Stack stack;
  if (spec.kind == Kind::kRag) {
    stack.harness = std::make_unique<prism::ScenarioHarness>(
        prism::ScenarioKind::kRag, model, ScenarioOptionsFor(spec));
  }
  stack.service =
      std::make_unique<prism::RerankService>(model, checkpoint, ServiceOptionsFor(spec));
  stack.service_probe = std::make_unique<ServiceProbe>(stack.service.get(), model, log);
  if (spec.cache_capacity > 0) {
    prism::ResultCacheOptions cache_options;
    cache_options.capacity = spec.cache_capacity;
    stack.cache =
        std::make_unique<prism::ResultCache>(stack.service_probe.get(), cache_options);
    stack.cache_probe = std::make_unique<CacheProbe>(stack.cache.get());
  }
  return stack;
}

// Builds and tears down the stack several times; returns the median build
// time in seconds. Checkpoint synthesis is not part of it.
double MeasureSetup(const WorkloadSpec& spec, const ModelConfig& model,
                    const std::string& checkpoint) {
  constexpr int kRepeats = 15;
  std::vector<double> seconds;
  for (int i = 0; i < kRepeats; ++i) {
    PassLog log;
    const prism::WallTimer timer;
    Stack stack = BuildStack(spec, model, checkpoint, &log);
    seconds.push_back(timer.ElapsedSeconds());
  }
  return Median(seconds);
}

// Counters snapshotted at measure start and end.
struct Counters {
  prism::ServiceStats service;
  prism::ResultCacheStats cache;
  prism::CarouselScheduler::Stats carousel;
};

Counters Snapshot(const Stack& stack) {
  Counters c;
  c.service = stack.service->stats();
  if (stack.cache != nullptr) {
    c.cache = stack.cache->stats();
  }
  const auto* carousel =
      dynamic_cast<const prism::CarouselScheduler*>(&stack.service->scheduler());
  if (carousel != nullptr) {
    c.carousel = carousel->stats();
  }
  return c;
}

// Samples the tracked model memory every 10 ms on its own thread while the
// measure phase runs (cheap: one uncontended lock per sample).
class FootprintSampler {
 public:
  FootprintSampler() = default;
  ~FootprintSampler() { Stop(); }

  FootprintSampler(const FootprintSampler&) = delete;
  FootprintSampler& operator=(const FootprintSampler&) = delete;

  void Start() {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        tracked_mib_.push_back(static_cast<double>(MemoryTracker::Global().CurrentTotal()) /
                               kMiB);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  // Joins the sampler; the samples are complete afterwards.
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  const std::vector<double>& tracked_mib() const { return tracked_mib_; }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> tracked_mib_;  // Owned by the sampler thread until joined.
  std::thread thread_;
};

// One measured request's outcome.
struct Served {
  bool ok = false;
  double quality = 0.0;
  size_t reranks = 0;
  RerankResult result;       // kSelect.
  size_t query = 0;          // Pool index (kSelect) or query id (kRag).
  std::vector<size_t> selection;  // kRag.
};

// ---------------------------------------------------------------------------
// Traced-run extras: the stage-driver replay and the kernel rates.

struct ReplayReport {
  size_t passes = 0;
  size_t mismatches = 0;
  std::vector<double> driver_ms;
  std::vector<double> engine_ms;
  std::map<std::string, SpanTotals> spans;
  prism::SsdStats ssd;
  int64_t streamed_bytes = 0;
  std::vector<LayerRecord> layers;
  size_t rows = 0;  // Activation rows of the first pass's chunk.
};

// Replays captured engine requests, alternating a direct PrismEngine::Rerank
// and the stage driver on the same request and device, until `seconds` pass
// (at least one pair). Both must agree bit for bit.
ReplayReport Replay(const WorkloadSpec& spec, const ModelConfig& model,
                    const std::string& checkpoint, const std::vector<EnginePass>& passes,
                    double seconds) {
  ReplayReport report;
  const PrismOptions options = ServiceOptionsFor(spec).engine;
  MemoryTracker engine_tracker;
  PrismEngine engine(model, checkpoint, options, &engine_tracker);
  StageDriver driver(model, checkpoint, options);
  const prism::WallTimer budget;
  for (size_t i = 0; i < passes.size() && (i == 0 || budget.ElapsedSeconds() < seconds); ++i) {
    const RerankRequest& request = *passes[i].request;
    if (i == 0) {
      report.rows = driver.PlanCandidates(request.docs.size(), passes[i].seq_len) *
                    passes[i].seq_len;
    }
    prism::WallTimer timer;
    const RerankResult expected = engine.Rerank(request);
    report.engine_ms.push_back(timer.ElapsedMillis());
    timer.Reset();
    const RerankResult got = driver.Run(request, /*request_id=*/1000000 + i);
    report.driver_ms.push_back(timer.ElapsedMillis());
    if (!SameSelection(expected, got)) {
      ++report.mismatches;
    }
    ++report.passes;
  }
  // Only the replay records pass.* spans.
  report.spans = TotalsByName(CollectSpans());
  report.ssd = driver.ssd_stats();
  report.streamed_bytes = driver.streamed_bytes();
  report.layers = driver.layers();
  return report;
}

std::string LayerArraysJson(const ReplayReport& replay) {
  std::string acquire;
  std::string forward;
  std::string settle;
  std::string active;
  for (size_t l = 0; l < replay.layers.size(); ++l) {
    const LayerRecord& r = replay.layers[l];
    const double n = std::max<double>(1.0, static_cast<double>(r.passes));
    const char* sep = l == 0 ? "" : ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.6g", sep, r.acquire_ms / n);
    acquire += buf;
    std::snprintf(buf, sizeof(buf), "%s%.6g", sep, r.forward_ms / n);
    forward += buf;
    std::snprintf(buf, sizeof(buf), "%s%.6g", sep, r.settle_ms / n);
    settle += buf;
    std::snprintf(buf, sizeof(buf), "%s%.6g", sep, static_cast<double>(r.active_candidates) / n);
    active += buf;
  }
  return "{\"per_layer\": {\"acquire_ms\": [" + acquire + "], \"forward_ms\": [" + forward +
         "], \"settle_ms\": [" + settle + "], \"active_candidates\": [" + active + "]}}";
}

// `n` query ids in [0, universe) whose counts follow P(k) ∝ 1 / (k + 1)^skew
// (ZipfSampler's law) as closely as whole numbers allow, in id order.
std::vector<size_t> ZipfQuotas(size_t n, size_t universe, double skew) {
  std::vector<double> weight(universe);
  double total = 0.0;
  for (size_t k = 0; k < universe; ++k) {
    weight[k] = 1.0 / std::pow(static_cast<double>(k + 1), skew);
    total += weight[k];
  }
  std::vector<size_t> count(universe);
  std::vector<std::pair<double, size_t>> remainder;
  size_t assigned = 0;
  for (size_t k = 0; k < universe; ++k) {
    const double share = static_cast<double>(n) * weight[k] / total;
    count[k] = static_cast<size_t>(share);
    assigned += count[k];
    remainder.emplace_back(share - static_cast<double>(count[k]), k);
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = 0; assigned < n; ++i, ++assigned) {
    ++count[remainder[i % universe].second];
  }
  std::vector<size_t> ids;
  for (size_t k = 0; k < universe; ++k) {
    ids.insert(ids.end(), count[k], k);
  }
  return ids;
}

// ---------------------------------------------------------------------------
// One run.

struct RunResult {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  MetricList metrics;
};

// Mean self time of the spans called `name`, per `per` requests or passes.
double SelfMs(const std::map<std::string, SpanTotals>& totals, const std::string& name,
              size_t per) {
  const auto it = totals.find(name);
  if (it == totals.end() || per == 0) {
    return 0.0;
  }
  return it->second.self_ms / static_cast<double>(per);
}

RunResult RunWorkload(const WorkloadSpec& spec, const Args& args) {
  const ModelConfig model = args.test_model ? prism::TestModel() : prism::Qwen3Reranker0_6B();
  // Checkpoints are synthesised before anything is timed.
  const std::string checkpoint = EnsureCheckpointIn(args.ckpt_dir, model, spec.precision);

  // Inputs. The content (selection pool, RAG corpus) is fixed per workload;
  // the seed decides the traffic over it: the order callers draw inputs in,
  // think times and arrival times.
  std::vector<prism::RerankQuery> cases;  // The selection pool.
  std::vector<size_t> case_order;    // Input of each measured request.
  std::vector<size_t> warmup_order;  // Input of each warmup request.
  std::vector<double> arrivals_ms;   // Open loop only.
  // Traced runs split their time: 60% measured traffic, 30% stage-driver
  // replay, 10% kernel timing.
  const double load_seconds = args.trace ? 0.6 * args.seconds : args.seconds;
  prism::Rng order_rng(prism::MixSeed(args.seed, 0x0D3E));
  const auto shuffled = [&](std::vector<size_t> ids) {
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[order_rng.NextBelow(i)]);
    }
    return ids;
  };
  // Closed loops get more inputs than they can use in the time.
  const size_t closed_n =
      args.requests > 0
          ? args.requests
          : 64 + static_cast<size_t>((args.test_model ? 400.0 : 20.0) * load_seconds *
                                     static_cast<double>(spec.callers));
  const size_t warmup_n = spec.warmup_per_caller * spec.callers;
  if (spec.kind == Kind::kSelect) {
    const prism::SyntheticDataset data(prism::DatasetByName("wikipedia"), model, kPoolSeed);
    std::vector<size_t> pool(spec.pool);
    for (size_t i = 0; i < spec.pool; ++i) {
      cases.push_back(data.MakeQuery(i, spec.candidates));
      pool[i] = i;
    }
    // One shuffled pass over the pool after another, so every run measures
    // nearly the same mix of selections.
    while (case_order.size() < closed_n) {
      const std::vector<size_t> pass = shuffled(pool);
      case_order.insert(case_order.end(), pass.begin(), pass.end());
    }
    case_order.resize(closed_n);
    warmup_order = shuffled(pool);
    warmup_order.resize(std::min(warmup_order.size(), warmup_n));
  } else if (spec.arrival_hz > 0.0) {
    // Poisson arrivals conditioned on their count: rate × duration arrival
    // times drawn uniformly over the warmup and over the measure phase, so
    // every seed offers exactly the same number of requests. Each phase's
    // queries follow Zipf popularity exactly, in shuffled order.
    prism::Rng arrival_rng(prism::MixSeed(args.seed, 0xA221));
    const auto add_phase = [&](double begin_s, double seconds, std::vector<size_t>* order) {
      const auto n = static_cast<size_t>(std::lround(spec.arrival_hz * seconds));
      std::vector<double> phase;
      for (size_t i = 0; i < n; ++i) {
        phase.push_back(1000.0 * (begin_s + seconds * arrival_rng.NextDouble()));
      }
      std::sort(phase.begin(), phase.end());
      arrivals_ms.insert(arrivals_ms.end(), phase.begin(), phase.end());
      *order = shuffled(ZipfQuotas(n, spec.n_queries, spec.zipf));
    };
    add_phase(0.0, spec.warmup_s, &warmup_order);
    add_phase(spec.warmup_s, load_seconds, &case_order);
  } else {
    // Blocks of queries that each follow Zipf popularity exactly, each in
    // shuffled order, so the prefix a run gets through has nearly the same
    // mix on every seed.
    constexpr size_t kQuotaBlock = 128;
    while (case_order.size() < closed_n) {
      const std::vector<size_t> block =
          shuffled(ZipfQuotas(kQuotaBlock, spec.n_queries, spec.zipf));
      case_order.insert(case_order.end(), block.begin(), block.end());
    }
    case_order.resize(closed_n);
    warmup_order = shuffled(ZipfQuotas(warmup_n, spec.n_queries, spec.zipf));
  }
  std::vector<RerankRequest> requests;  // One per pool entry.
  for (const prism::RerankQuery& q : cases) {
    requests.push_back(RerankRequest::FromQuery(q, spec.k));
  }

  RunResult run;
  const double setup_s = MeasureSetup(spec, model, checkpoint);

  EnableSpans(args.trace);
  MemoryTracker::Global().Reset();
  PassLog log;
  Stack stack = BuildStack(spec, model, checkpoint, &log);

  std::vector<Served> served(case_order.size());
  std::atomic<uint64_t> next_request_id{1};
  const LoadCall call = [&](size_t index, bool warmup) {
    const RequestScope scope(next_request_id.fetch_add(1));
    tls_measured = !warmup;
    tls_reranks = 0;
    const size_t entry = warmup ? warmup_order[index] : case_order[index];
    Served s;
    s.query = entry;
    if (spec.kind == Kind::kSelect) {
      s.result = stack.front()->Rerank(requests[entry]);
      s.ok = s.result.status.ok();
      s.quality = prism::PrecisionAtK(s.result.topk, cases[entry].relevant, spec.k);
    } else {
      prism::ScenarioOutcome outcome;
      {
        const ScopedSpan span("apps.run");
        outcome = stack.harness->Run(entry, stack.front());
      }
      s.ok = outcome.served;
      s.quality = outcome.quality;
      s.reranks = tls_reranks;
      s.selection = std::move(outcome.selection);
    }
    if (!warmup) {
      served[index] = std::move(s);
    }
    tls_measured = false;
  };

  LoadOptions load;
  load.callers = spec.callers;
  load.seconds = load_seconds;
  load.max_requests = case_order.size();
  load.warmup_per_caller = spec.warmup_per_caller;
  load.think_ms = spec.think_ms;
  load.seed = args.seed;
  load.arrivals_ms = arrivals_ms;
  load.warmup_ms = 1000.0 * spec.warmup_s;
  Counters at_start;
  FootprintSampler footprint;
  load.on_measure_start = [&] {
    at_start = Snapshot(stack);
    footprint.Start();
  };
  const LoadReport report = RunLoad(load, call);
  footprint.Stop();
  const Counters at_end = Snapshot(stack);
  std::vector<EnginePass> passes = log.Take();
  const int64_t peak_tracked = MemoryTracker::Global().PeakTotal();
  std::array<double, 4> peak_category = {
      MemoryTracker::Global().PeakBytes(MemCategory::kWeights) / kMiB,
      MemoryTracker::Global().PeakBytes(MemCategory::kActivations) / kMiB,
      MemoryTracker::Global().PeakBytes(MemCategory::kHiddenStates) / kMiB,
      MemoryTracker::Global().PeakBytes(MemCategory::kEmbedding) / kMiB};

  // --- Correctness: every served selection against the serial reference.
  std::vector<double> latencies;
  std::vector<double> lags;
  std::vector<double> quality;
  size_t within_slo = 0;
  size_t reranks = 0;
  std::vector<size_t> measured;  // Indices of measured requests.
  for (const RequestTiming& t : report.timings) {
    measured.push_back(t.index);
    lags.push_back(t.lag_ms);
    const Served& s = served[t.index];
    if (!s.ok) {
      ++run.failed;
      continue;
    }
    latencies.push_back(t.latency_ms);
    quality.push_back(s.quality);
    reranks += s.reranks;
    if (t.latency_ms <= spec.slo_ms) {
      ++within_slo;
    }
  }
  run.attempted = measured.size();

  size_t mismatches = 0;
  std::atomic<size_t> mismatch_count{0};
  const prism::WallTimer check_timer;
  // One reference per distinct input (pool entry or query id).
  std::vector<size_t> queries;
  for (const size_t i : measured) {
    if (served[i].ok) {
      queries.push_back(served[i].query);
    }
  }
  std::sort(queries.begin(), queries.end());
  queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  if (spec.kind == Kind::kSelect) {
    std::vector<RerankResult> reference(requests.size());
    ForEachOnReferenceEngines(model, checkpoint, ReferenceOptions(spec), queries.size(),
                              [&](PrismEngine& engine, size_t j) {
                                reference[queries[j]] = engine.Rerank(requests[queries[j]]);
                              });
    for (const size_t i : measured) {
      if (served[i].ok && !SameSelection(reference[served[i].query], served[i].result)) {
        mismatch_count.fetch_add(1);
      }
    }
  } else {
    std::vector<std::vector<size_t>> baseline(spec.n_queries);
    ForEachOnReferenceEngines(model, checkpoint, ReferenceOptions(spec), queries.size(),
                              [&](PrismEngine& engine, size_t j) {
                                prism::ScenarioOutcome outcome =
                                    stack.harness->Run(queries[j], &engine);
                                baseline[queries[j]] = std::move(outcome.selection);
                              });
    for (const size_t i : measured) {
      if (served[i].ok && served[i].selection != baseline[served[i].query]) {
        mismatch_count.fetch_add(1);
      }
    }
  }
  mismatches = mismatch_count.load();
  const double check_s = check_timer.ElapsedSeconds();
  const size_t n_served = latencies.size();

  std::printf("%s\n", ProvenanceJson(spec.name, static_cast<unsigned long long>(args.seed),
                                     args.seconds, args.trace)
                          .c_str());
  std::printf("workload %s: %zu attempted, %zu served, %zu failed (failed_fraction %.4f), "
              "%zu selection mismatches vs the serial reference (checked in %.1f s)\n",
              spec.name, run.attempted, n_served, run.failed,
              run.attempted == 0 ? 0.0
                                 : static_cast<double>(run.failed) /
                                       static_cast<double>(run.attempted),
              mismatches, check_s);
  std::printf("latency ms p10 %.1f p25 %.1f p50 %.1f p75 %.1f p90 %.1f max %.1f; "
              "%.2f cores busy; %zu requests in %zu carousel cycles; result-cache hits %zu of %zu\n",
              Percentile(latencies, 10.0), Percentile(latencies, 25.0),
              Percentile(latencies, 50.0), Percentile(latencies, 75.0),
              Percentile(latencies, 90.0), Percentile(latencies, 100.0),
              report.cpu_s / report.wall_s, at_end.carousel.admitted - at_start.carousel.admitted,
              at_end.carousel.cycles - at_start.carousel.cycles,
              (at_end.cache.hits + at_end.cache.coalesced) - (at_start.cache.hits + at_start.cache.coalesced),
              at_end.cache.lookups - at_start.cache.lookups);
  run.correct = mismatches == 0 && run.attempted > 0 && n_served > 0;

  const double lag_p90 = Percentile(lags, 90.0);
  if (!arrivals_ms.empty() && lag_p90 > 100.0) {
    std::printf("INVALID RUN: the load generator fell behind its schedule (lag p90 %.1f ms)\n",
                lag_p90);
  }
  if (!report.rss_reset) {
    std::printf("note: /proc/self/clear_refs refused; peak_rss_mib covers the whole process\n");
  }

  const double served_d = std::max<double>(1.0, static_cast<double>(n_served));
  if (!args.trace) {
    MetricList& m = run.metrics;
    m.Add("latency_p50_ms", Percentile(latencies, 50.0), "ms");
    m.Add("latency_p90_ms", Percentile(latencies, 90.0), "ms");
    m.Add("throughput_rps", static_cast<double>(n_served) / report.wall_s, "1/s");
    m.Add("slo_attainment",
          static_cast<double>(within_slo) / static_cast<double>(std::max<size_t>(1, run.attempted)),
          "ratio");
    m.Add("cpu_ms_per_request", 1000.0 * report.cpu_s / served_d, "ms");
    m.Add("tracked_mem_mean_mib", Mean(footprint.tracked_mib()), "MiB");
    m.Add("precision_at_k", Mean(quality), "ratio");
    m.Add("setup_s", setup_s, "s");
    return run;
  }

  // --- Traced run: per-layer metrics.
  const std::vector<Span> load_spans = CollectSpans();
  const std::map<std::string, SpanTotals> load_totals = TotalsByName(load_spans);
  // Every measured pass of a traced run carries its request.
  const ReplayReport replay =
      passes.empty() ? ReplayReport{}
                     : Replay(spec, model, checkpoint, passes, 0.3 * args.seconds);
  if (replay.mismatches > 0) {
    std::printf("stage driver disagrees with PrismEngine::Rerank on %zu of %zu passes\n",
                replay.mismatches, replay.passes);
    run.correct = false;
  }
  const size_t rows = std::max<size_t>(1, replay.rows);
  const KernelRates kernels = MeasureKernels(model, rows, 0.025 * args.seconds);

  // Engine stats over the measured passes.
  double embed_ms = 0.0;
  double compute_ms = 0.0;
  double stall_ms = 0.0;
  double first_layer_ms = 0.0;
  double layers_until_done = 0.0;
  double candidate_layers = 0.0;
  double full_layers = 0.0;
  double bytes_streamed = 0.0;
  double gemm_ops = 0.0;
  std::vector<double> queue_wait;
  for (const EnginePass& p : passes) {
    embed_ms += p.stats.embed_ms;
    compute_ms += p.stats.compute_ms;
    stall_ms += p.stats.io_stall_ms;
    first_layer_ms += p.stats.first_layer_ms;
    layers_until_done += static_cast<double>(p.stats.layers_until_done);
    candidate_layers += static_cast<double>(p.stats.candidate_layers);
    full_layers += static_cast<double>(p.candidates * model.n_layers);
    bytes_streamed += static_cast<double>(p.stats.bytes_streamed);
    gemm_ops += static_cast<double>(p.stats.candidate_layers) *
                static_cast<double>(p.seq_len) * LayerGemmOpsPerRow(model);
    queue_wait.push_back(p.stats.queue_wait_ms);
  }
  const size_t n_passes = std::max<size_t>(1, queue_wait.size());
  const auto per_pass = [&](double v) { return v / static_cast<double>(n_passes); };
  const int64_t embed_hits = at_end.service.embed_hits - at_start.service.embed_hits;
  const int64_t embed_misses = at_end.service.embed_misses - at_start.service.embed_misses;
  const int64_t embed_miss_bytes =
      at_end.service.embed_miss_bytes - at_start.service.embed_miss_bytes;
  const size_t cycles = at_end.carousel.cycles - at_start.carousel.cycles;
  const size_t admitted = at_end.carousel.admitted - at_start.carousel.admitted;
  const size_t lookups = at_end.cache.lookups - at_start.cache.lookups;
  const size_t cache_served = (at_end.cache.hits + at_end.cache.similarity_hits +
                               at_end.cache.coalesced) -
                              (at_start.cache.hits + at_start.cache.similarity_hits +
                               at_start.cache.coalesced);
  const size_t coalesced = at_end.cache.coalesced - at_start.cache.coalesced;

  MetricList& m = run.metrics;
  m.Add("kernel.gemm_fp32_gops", kernels.fp32_gops, "Gop/s");
  m.Add("kernel.gemm_fp16_gops", kernels.fp16_gops, "Gop/s");
  m.Add("kernel.gemm_int8_gops", kernels.int8_gops, "Gop/s");
  m.Add("kernel.gemm_w4_gops", kernels.w4_gops, "Gop/s");
  m.Add("kernel.ops_per_request", gemm_ops / served_d, "op");
  const double driver_total_ms = [&] {
    double sum = 0.0;
    for (const double v : replay.driver_ms) {
      sum += v;
    }
    return sum;
  }();
  const double replay_passes = std::max<double>(1.0, static_cast<double>(replay.passes));
  m.Add("streamer.mib_per_s",
        driver_total_ms > 0.0
            ? static_cast<double>(replay.streamed_bytes) / kMiB / (driver_total_ms / 1000.0)
            : 0.0,
        "MiB/s");
  m.Add("ssd.bytes_per_request", static_cast<double>(replay.ssd.bytes_read) / replay_passes,
        "B");
  m.Add("ssd.reads_per_request", static_cast<double>(replay.ssd.read_requests) / replay_passes,
        "count");
  m.Add("ssd.busy_share",
        driver_total_ms > 0.0
            ? static_cast<double>(replay.ssd.busy_micros) / 1000.0 / driver_total_ms
            : 0.0,
        "ratio");
  m.Add("embed.hit_rate",
        embed_hits + embed_misses == 0
            ? 0.0
            : static_cast<double>(embed_hits) / static_cast<double>(embed_hits + embed_misses),
        "ratio");
  m.Add("embed.miss_bytes_per_request", static_cast<double>(embed_miss_bytes) / served_d, "B");
  m.Add("engine.embed_ms", per_pass(embed_ms), "ms");
  m.Add("engine.compute_ms", per_pass(compute_ms), "ms");
  m.Add("engine.io_stall_ms", per_pass(stall_ms), "ms");
  m.Add("engine.first_layer_ms", per_pass(first_layer_ms), "ms");
  m.Add("engine.layers_until_done", per_pass(layers_until_done), "count");
  m.Add("engine.candidate_layers", per_pass(candidate_layers), "count");
  m.Add("engine.work_fraction", full_layers > 0.0 ? candidate_layers / full_layers : 0.0,
        "ratio");
  m.Add("engine.bytes_streamed", per_pass(bytes_streamed), "B");
  const size_t rp = replay.passes;
  m.Add("pass.plan_ms", SelfMs(replay.spans, "pass.plan", rp), "ms");
  m.Add("pass.embed_ms", SelfMs(replay.spans, "pass.embed", rp), "ms");
  m.Add("pass.acquire_wait_ms", SelfMs(replay.spans, "pass.acquire", rp), "ms");
  m.Add("pass.forward_ms", SelfMs(replay.spans, "pass.forward", rp), "ms");
  m.Add("pass.settle_ms", SelfMs(replay.spans, "pass.settle", rp), "ms");
  m.Add("pass.finalize_ms", SelfMs(replay.spans, "pass.finalize", rp), "ms");
  m.Add("pass.self_ms", SelfMs(replay.spans, "pass", rp), "ms");
  double active = 0.0;
  double visits = 0.0;
  for (const LayerRecord& r : replay.layers) {
    active += static_cast<double>(r.active_candidates);
    visits += static_cast<double>(r.passes);
  }
  m.Add("pass.active_candidates", visits > 0.0 ? active / visits : 0.0, "count");
  m.Add("pass.driver_ms", Median(replay.driver_ms), "ms");
  m.Add("pass.engine_ms", Median(replay.engine_ms), "ms");
  m.Add("scheduler.queue_wait_p50_ms", Percentile(queue_wait, 50.0), "ms");
  m.Add("scheduler.queue_wait_p90_ms", Percentile(queue_wait, 90.0), "ms");
  m.Add("scheduler.requests_per_cycle",
        cycles == 0 ? 1.0 : static_cast<double>(admitted) / static_cast<double>(cycles),
        "count");
  m.Add("scheduler.cores_busy", report.cpu_s / report.wall_s, "cores");
  m.Add("result_cache.hit_rate",
        lookups == 0 ? 0.0 : static_cast<double>(cache_served) / static_cast<double>(lookups),
        "ratio");
  m.Add("result_cache.coalesced_share",
        lookups == 0 ? 0.0 : static_cast<double>(coalesced) / static_cast<double>(lookups),
        "ratio");
  m.Add("apps.self_ms", SelfMs(load_totals, "apps.run", run.attempted), "ms");
  m.Add("apps.reranks_per_request",
        spec.kind == Kind::kRag ? static_cast<double>(reranks) / served_d : 0.0, "count");
  m.Add("mem.peak_tracked_mib", static_cast<double>(peak_tracked) / kMiB, "MiB");
  m.Add("mem.peak_rss_mib", report.peak_rss_mib, "MiB");
  m.Add("mem.peak_weights_mib", peak_category[0], "MiB");
  m.Add("mem.peak_activations_mib", peak_category[1], "MiB");
  m.Add("mem.peak_hidden_mib", peak_category[2], "MiB");
  m.Add("mem.peak_embedding_mib", peak_category[3], "MiB");
  m.Add("loadgen.lag_p90_ms", lag_p90, "ms");
  m.Add("trace.latency_p50_ms", Percentile(latencies, 50.0), "ms");

  if (!args.trace_out.empty()) {
    std::filesystem::path out(args.trace_out);
    if (out.has_parent_path()) {
      std::filesystem::create_directories(out.parent_path());
    }
    std::string other = LayerArraysJson(replay);
    other.pop_back();  // Append the metrics to the same object.
    other += ", \"metrics\": " + m.Json() + "}";
    if (WriteTrace(args.trace_out, CollectSpans(), other)) {
      std::printf("trace written to %s\n", args.trace_out.c_str());
    } else {
      std::printf("could not write trace %s\n", args.trace_out.c_str());
    }
  }
  return run;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return 2;
  }
  try {
    const perfbench::RunResult run =
        perfbench::RunWorkload(*perfbench::FindWorkload(args.workload), args);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                run.correct ? "true" : "false", run.attempted, run.failed,
                run.metrics.Json().c_str());
    std::fflush(stdout);
    return run.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
