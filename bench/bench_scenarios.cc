// Multi-client scenario traffic over the serving stack — the end-to-end
// apps-over-service bench, and the first entries of the perf trajectory.
//
// For each application scenario (file_search, rag, agent_memory, lcs) the
// bench measures a single-client serial baseline (per-query selection
// signatures + unloaded service time), then sweeps
// {scheduler × pool_size × arrival mode} with N concurrent clients and
// Zipf-skewed query popularity, checking every served request's selection
// against the baseline: 0 mismatches means no scheduler/pool combination
// ever changed a decision. A final 2× overload phase per scenario runs with
// deadlines and verifies the serving layer degrades the right way — shed
// fraction rises while served-only p99 stays within one carousel interval
// (serial service time × max_inflight) of the unloaded carousel run (only
// observable because the workload report keeps shed requests out of its
// percentiles). The summary prints, per scheduler, the closed-loop req/s of
// 2 replicas over 1 — the replica-sharding scaling line.
//
// A machine-readable JSON summary is printed to stdout after the human
// table (and optionally written to --json=PATH).
//
// Flags: --model=Qwen3-Reranker-0.6B --device=nvidia|apple --threshold=0.40
//        --precision=fp32|fp16|int8|w4 (storage precision for every stack in
//        the sweep, baseline included, so the mismatch gate covers serving at
//        that tier; bytes per pass, score drift and selection agreement vs
//        fp32 are bench_quant's to measure and gate)
//        --scenarios=all|comma-list --schedulers=serial,carousel
//        --pool_sizes=1,2 --clients=6 --requests=24 --warmup=4
//        --n_queries=8 --max_inflight=4 --zipf=0.9 --rates=0.7
//        --ssd_mbps=12 (0 = device profile default) --overload=true
//        --json=PATH
//        --cache_capacity=N: exact-key LRU result cache of N entries in
//        front of every stack in the main grid (default 0 = off; --smoke
//        defaults it to n_queries)
//        --cache_sweep=true: for the first scenario, serve overloaded
//        open-loop traffic (zipf 0.7 and 1.1) through a serial stack
//        behind a cache of 0, head-sized and full-universe capacity
//        --smoke: tiny config (test model, unthrottled device, one scenario
//        per scheduler, closed loop only, no overload phase) for CI —
//        exits nonzero on any mismatch.
//        --sim: discrete-event simulation mode. Every run gets a fresh
//        SimClock and the virtual service-cost model (ServiceOptions::sim):
//        arrivals, queueing, deadlines, and the overload phase all play out
//        in virtual time, so a sweep that takes minutes of wall time —
//        including 10k-request open-loop overloads — finishes in seconds and
//        its JSON is byte-identical run over run (the sim-determinism CI
//        lane diffs two of them). Uses the test model and an unthrottled
//        device: engine passes run once per unique query at frozen virtual
//        instants and are memoized; serving dynamics dominate, which is
//        exactly what the mode studies. Sim defaults: 10000 requests per
//        run, file_search only (serving dynamics are scenario-agnostic;
//        --scenarios=all opts into the slower multi-stage pipelines), and
//        the overload phase becomes an open-loop Poisson flood at 2x the
//        measured serial capacity.
#include <cstdio>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/core/service_pool.h"
#include "src/serving/result_cache.h"
#include "src/serving/workload.h"

namespace prism {
namespace {

// One serving stack (a single service or a pool, optionally fronted by a
// result cache) behind a Runner*.
struct Stack {
  std::unique_ptr<RerankService> service;
  std::unique_ptr<ServicePool> pool;
  std::unique_ptr<ResultCache> cache;  // Fronts service/pool when non-null.

  Runner* runner() {
    if (cache != nullptr) {
      return cache.get();
    }
    return pool != nullptr ? static_cast<Runner*>(pool.get())
                           : static_cast<Runner*>(service.get());
  }
  ServiceStats Stats() const {
    return pool != nullptr ? pool->stats().aggregate : service->stats();
  }
};

struct StackSpec {
  ModelConfig model;
  std::string checkpoint;
  DeviceProfile device;
  Precision precision = Precision::kFp32;
  float threshold = kThresholdHigh;
  size_t max_inflight = 4;
  size_t total_threads = 4;
  bool sim = false;  // Virtual service-cost model on every stack.
  // Result-cache tier (src/serving/result_cache.h). 0 = no cache.
  size_t cache_capacity = 0;
};

Stack MakeStack(const StackSpec& spec, SchedulerKind kind, size_t pool_size,
                Clock* clock = nullptr) {
  MemoryTracker::Global().Reset();
  ServiceOptions options;
  options.engine.device = spec.device;
  options.engine.precision = spec.precision;
  options.engine.dispersion_threshold = spec.threshold;
  options.scheduler = kind;
  options.max_inflight = kind == SchedulerKind::kSerial ? 1 : spec.max_inflight;
  options.compute_threads = std::max<size_t>(1, spec.total_threads / pool_size);
  options.clock = clock;
  options.sim.enabled = spec.sim;
  Stack stack;
  if (pool_size == 1) {
    stack.service = std::make_unique<RerankService>(spec.model, spec.checkpoint, options);
  } else {
    ServicePoolOptions pool_options;
    pool_options.service = options;
    pool_options.pool_size = pool_size;
    stack.pool = std::make_unique<ServicePool>(spec.model, spec.checkpoint, pool_options);
  }
  if (spec.cache_capacity > 0) {
    ResultCacheOptions cache_options;
    cache_options.capacity = spec.cache_capacity;
    cache_options.clock = clock;
    stack.cache = std::make_unique<ResultCache>(stack.pool != nullptr
                                                    ? static_cast<Runner*>(stack.pool.get())
                                                    : static_cast<Runner*>(stack.service.get()),
                                                cache_options);
  }
  return stack;
}

struct RunRecord {
  std::string scenario;
  std::string scheduler;
  size_t pool_size = 1;
  std::string mode;  // "closed" | "open" | "overload" | "cache"
  size_t clients = 0;
  double arrival_hz = 0.0;
  double deadline_ms = 0.0;
  size_t cache_capacity = 0;  // Result-cache entries (0 = no cache tier).
  double zipf = 0.0;
  WorkloadReport report;
  double work_fraction = 0.0;
};

// Replica-sharding scaling, one line per scheduler: closed-loop served req/s
// summed over scenarios at 2 replicas, over the same sum at 1. Each replica
// streams from its own SSD queue, so an SSD-bound sweep should approach 2x.
// Schedulers missing either pool size print nothing.
void PrintReplicaScaling(const std::vector<RunRecord>& runs) {
  std::vector<std::string> schedulers;
  for (const RunRecord& r : runs) {
    if (std::find(schedulers.begin(), schedulers.end(), r.scheduler) == schedulers.end()) {
      schedulers.push_back(r.scheduler);
    }
  }
  for (const std::string& scheduler : schedulers) {
    double one = 0.0;
    double two = 0.0;
    for (const RunRecord& r : runs) {
      if (r.scheduler != scheduler || r.mode != "closed") {
        continue;
      }
      if (r.pool_size == 1) {
        one += r.report.served_per_sec;
      } else if (r.pool_size == 2) {
        two += r.report.served_per_sec;
      }
    }
    if (one > 0.0 && two > 0.0) {
      std::printf("%s: 2 replicas vs 1: %.2fx\n", scheduler.c_str(), two / one);
    }
  }
}

// Pulls the post-run accounting (embedding-cache counters from the stack,
// result-cache counters when a cache tier fronted it) into the report so
// every emitted row carries its hit rates. Embedding-cache counters are
// skipped in --sim mode: the embed LRU lives inside the engine's compute
// fan-out, whose thread interleaving is outside the SimClock determinism
// domain, so its hit counts would break byte-identical replay.
void AttachStats(RunRecord& record, const Stack& stack, bool sim) {
  if (!sim) {
    record.report.AttachServingStats(stack.Stats());
  }
  if (stack.cache != nullptr) {
    record.report.AttachCacheStats(stack.cache->stats());
  }
}

void PrintRow(const RunRecord& r) {
  const std::string name = r.scenario + " " + r.scheduler + "x" +
                           std::to_string(r.pool_size) + " " + r.mode;
  // The throughput column is the *served* rate: shed requests turn around
  // in ~0 ms, so counting them would make overload rows look faster.
  // hit% is the result-cache hit rate (blank-equivalent 0 when no cache).
  std::printf("%-36s %8.2f %9.2f %9.2f %7.0f%% %6.0f%% %8.2f %9.2f %6zu\n", name.c_str(),
              r.report.served_per_sec, r.report.p50_ms, r.report.p99_ms,
              100.0 * r.report.shed_fraction, 100.0 * r.report.cache_hit_rate,
              r.report.mean_quality, r.work_fraction, r.report.mismatches);
}

void JsonRun(FILE* out, const RunRecord& r, bool last) {
  std::fprintf(out,
               "    {\"scenario\": \"%s\", \"scheduler\": \"%s\", \"pool_size\": %zu, "
               "\"mode\": \"%s\", \"clients\": %zu, \"arrival_hz\": %.6g, "
               "\"deadline_ms\": %.6g, \"requests\": %zu, \"served\": %zu, \"shed\": %zu, "
               "\"errors\": %zu, \"req_per_sec\": %.6g, \"served_per_sec\": %.6g, "
               "\"p50_ms\": %.6g, \"p99_ms\": %.6g, "
               "\"mean_ms\": %.6g, \"shed_fraction\": %.6g, \"slo_attainment\": %.6g, "
               "\"mean_quality\": %.6g, \"mean_queue_wait_ms\": %.6g, "
               "\"work_fraction\": %.6g, \"mismatches\": %zu, "
               "\"cache_capacity\": %zu, \"zipf\": %.6g, \"cache_lookups\": %zu, "
               "\"cache_hits\": %zu, \"cache_coalesced\": %zu, \"cache_hit_rate\": %.6g, "
               "\"embed_hit_rate\": %.6g}%s\n",
               r.scenario.c_str(), r.scheduler.c_str(), r.pool_size, r.mode.c_str(), r.clients,
               r.arrival_hz, r.deadline_ms, r.report.requests, r.report.served, r.report.shed,
               r.report.errors, r.report.requests_per_sec, r.report.served_per_sec,
               r.report.p50_ms, r.report.p99_ms,
               r.report.mean_ms, r.report.shed_fraction, r.report.slo_attainment,
               r.report.mean_quality, r.report.mean_queue_wait_ms, r.work_fraction,
               r.report.mismatches, r.cache_capacity, r.zipf, r.report.cache_lookups,
               r.report.cache_hits, r.report.cache_coalesced, r.report.cache_hit_rate,
               r.report.embed_hit_rate, last ? "" : ",");
}

struct OverloadCheck {
  std::string scenario;
  double shed_fraction = 0.0;
  double unloaded_shed_fraction = 0.0;
  double p99_ms = 0.0;
  double bound_ms = 0.0;
  bool ok = false;
};

// One cache-sweep comparison: same overloaded open-loop traffic served with
// and without a head-sized result cache. The cache absorbs the Zipf head, so
// the served rate must rise by at least `kCacheSpeedupFloor` while every
// cached answer stays bit-identical (0 mismatches).
constexpr double kCacheSpeedupFloor = 1.5;

struct CacheCheck {
  std::string scenario;
  double zipf = 0.0;
  size_t head_capacity = 0;
  double served_cache_off = 0.0;
  double served_cache_head = 0.0;
  double speedup = 0.0;
  double hit_rate = 0.0;
  size_t mismatches = 0;
  bool ok = false;
};

void EmitJson(FILE* out, const std::string& model, const std::string& device, bool smoke,
              bool sim, const std::string& precision, const std::vector<RunRecord>& runs,
              const std::vector<OverloadCheck>& overloads,
              const std::vector<CacheCheck>& cache_checks, size_t total_mismatches, bool ok) {
  std::fprintf(out,
               "{\n  \"model\": \"%s\",\n  \"device\": \"%s\",\n  \"smoke\": %s,\n"
               "  \"sim\": %s,\n  \"precision\": \"%s\",\n",
               model.c_str(), device.c_str(), smoke ? "true" : "false",
               sim ? "true" : "false", precision.c_str());
  std::fprintf(out, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    JsonRun(out, runs[i], i + 1 == runs.size());
  }
  std::fprintf(out, "  ],\n  \"overload\": [\n");
  for (size_t i = 0; i < overloads.size(); ++i) {
    const OverloadCheck& o = overloads[i];
    std::fprintf(out,
                 "    {\"scenario\": \"%s\", \"shed_fraction\": %.6g, "
                 "\"unloaded_shed_fraction\": %.6g, \"p99_ms\": %.6g, \"bound_ms\": %.6g, "
                 "\"ok\": %s}%s\n",
                 o.scenario.c_str(), o.shed_fraction, o.unloaded_shed_fraction, o.p99_ms,
                 o.bound_ms, o.ok ? "true" : "false", i + 1 == overloads.size() ? "" : ",");
  }
  std::fprintf(out, "  ],\n  \"cache_sweep\": [\n");
  for (size_t i = 0; i < cache_checks.size(); ++i) {
    const CacheCheck& c = cache_checks[i];
    std::fprintf(out,
                 "    {\"scenario\": \"%s\", \"zipf\": %.6g, \"head_capacity\": %zu, "
                 "\"served_cache_off\": %.6g, \"served_cache_head\": %.6g, "
                 "\"speedup\": %.6g, \"hit_rate\": %.6g, \"mismatches\": %zu, \"ok\": %s}%s\n",
                 c.scenario.c_str(), c.zipf, c.head_capacity, c.served_cache_off,
                 c.served_cache_head, c.speedup, c.hit_rate, c.mismatches,
                 c.ok ? "true" : "false", i + 1 == cache_checks.size() ? "" : ",");
  }
  std::fprintf(out, "  ],\n  \"total_mismatches\": %zu,\n  \"ok\": %s\n}\n", total_mismatches,
               ok ? "true" : "false");
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const bool sim = flags.GetBool("sim", false);
  const std::string precision_name = flags.GetString("precision", "fp32");
  Precision precision = Precision::kFp32;
  if (!PrecisionByName(precision_name, &precision)) {
    std::fprintf(stderr, "unknown --precision=%s (want fp32|fp16|int8|w4)\n",
                 precision_name.c_str());
    return 1;
  }

  ModelConfig model;
  DeviceProfile device;
  if (smoke || sim) {
    model = TestModel();
    device = DeviceByName("nvidia");
    device.ssd.throttle = false;
    device.compute_slowdown = 1.0;
  } else {
    model = ModelByName(flags.GetString("model", "Qwen3-Reranker-0.6B"));
    device = DeviceByName(flags.GetString("device", "nvidia"));
    // The paper's regime is SSD-bound (large checkpoints dwarf this zoo's
    // compute), so the sweep defaults to a slowed device; it is also what
    // lets two replicas' independent SSD queues show their scaling.
    // 0 = profile default.
    const double ssd_mbps = flags.GetDouble("ssd_mbps", 12.0);
    if (ssd_mbps > 0.0) {
      device.ssd.bandwidth_bytes_per_sec = ssd_mbps * 1024.0 * 1024.0;
    }
  }

  // The sim sweep is about serving dynamics (scheduler × replicas × load ×
  // overload), which are scenario-agnostic; default to the single-stage
  // file_search pipeline so the 10k-request grid stays in the tens of
  // seconds. Multi-stage pipelines (agent_memory issues several reranks per
  // request, each a serialized virtual-clock handshake) are ~10x slower per
  // request — opt in with --scenarios=all.
  std::vector<ScenarioKind> scenarios;
  const std::string scenario_csv = flags.GetString("scenarios", sim ? "file_search" : "all");
  if (scenario_csv == "all") {
    scenarios = AllScenarios();
  } else {
    for (const std::string& name : SplitCsv(scenario_csv)) {
      scenarios.push_back(ScenarioKindByName(name));
    }
  }
  std::vector<SchedulerKind> schedulers;
  for (const std::string& name : SplitCsv(flags.GetString("schedulers", "serial,carousel"))) {
    schedulers.push_back(SchedulerKindByName(name));
  }
  std::vector<size_t> pool_sizes;
  for (const std::string& p : SplitCsv(flags.GetString("pool_sizes", "1,2"))) {
    pool_sizes.push_back(static_cast<size_t>(std::stoul(p)));
  }
  std::vector<double> rate_factors;  // Open-loop offered load vs serial capacity.
  for (const std::string& r : SplitCsv(flags.GetString("rates", "0.7"))) {
    rate_factors.push_back(std::stod(r));
  }

  // Virtual time is cheap: the sim sweep defaults to a 10k-request schedule
  // per run — enough for shed fractions and tail percentiles to be properties
  // of the arrival process, not of a 24-sample draw.
  const size_t clients = static_cast<size_t>(flags.GetInt("clients", smoke ? 3 : 6));
  const size_t requests =
      static_cast<size_t>(flags.GetInt("requests", smoke ? 8 : (sim ? 10000 : 24)));
  const size_t warmup =
      static_cast<size_t>(flags.GetInt("warmup", smoke ? 2 : (sim ? 40 : 4)));
  const size_t n_queries = static_cast<size_t>(flags.GetInt("n_queries", smoke ? 4 : 8));
  const double zipf = flags.GetDouble("zipf", 0.9);
  const bool overload = !smoke && flags.GetBool("overload", true);
  // Cache knobs: smoke runs with a full-universe cache in front of every
  // stack (the mismatch gate then proves cached answers are bit-identical);
  // otherwise the main grid runs cache-off and the dedicated cache sweep
  // below measures the tier.
  const size_t cache_capacity = static_cast<size_t>(
      flags.GetInt("cache_capacity", smoke ? static_cast<int>(n_queries) : 0));
  const bool cache_sweep = !smoke && flags.GetBool("cache_sweep", true);

  StackSpec spec;
  spec.model = model;
  spec.device = device;
  spec.precision = precision;
  spec.threshold = static_cast<float>(flags.GetDouble("threshold", kThresholdHigh));
  spec.max_inflight = static_cast<size_t>(flags.GetInt("max_inflight", smoke ? 2 : 4));
  spec.total_threads =
      std::max<size_t>(std::thread::hardware_concurrency(), spec.max_inflight);
  spec.sim = sim;
  spec.cache_capacity = cache_capacity;
  spec.checkpoint = EnsureCheckpoint(model, kBenchSeed, precision);

  PrintHeader("Scenario serving sweep — " + model.name + " on " + device.name + " (" +
              precision_name + "), " +
              std::to_string(clients) + " clients, " + std::to_string(requests) +
              " requests (" + std::to_string(warmup) + " warmup), zipf " +
              std::to_string(zipf) + (sim ? ", simulated time" : ""));
  std::printf("%-36s %8s %9s %9s %8s %7s %8s %9s %6s\n", "scenario config", "req/s", "p50 ms",
              "p99 ms", "shed", "hit", "quality", "workfrac", "misms");

  std::vector<RunRecord> runs;
  std::vector<OverloadCheck> overloads;
  std::vector<CacheCheck> cache_checks;
  size_t total_mismatches = 0;

  for (size_t s = 0; s < scenarios.size(); ++s) {
    const ScenarioKind kind = scenarios[s];
    ScenarioOptions sopts;
    sopts.n_queries = n_queries;
    const ScenarioHarness harness(kind, model, sopts);

    // --- Single-client serial baseline: selections + unloaded timing. ----
    // Each run gets its own virtual timeline (the clock must outlive the
    // stack, whose dispatcher threads are clock participants).
    std::vector<std::vector<size_t>> baseline;
    WorkloadReport serial_unloaded;
    {
      const std::unique_ptr<SimClock> clk = sim ? std::make_unique<SimClock>() : nullptr;
      // The baseline stack is always cache-free: serial_ms below calibrates
      // deadlines and SLOs, and a cache hit's ~0 ms would deflate it.
      StackSpec baseline_spec = spec;
      baseline_spec.cache_capacity = 0;
      Stack stack = MakeStack(baseline_spec, SchedulerKind::kSerial, 1, clk.get());
      baseline = BaselineSelections(harness, stack.runner());
      WorkloadOptions wopts;
      wopts.clients = 1;
      wopts.requests = std::max<size_t>(requests / 2, harness.n_queries());
      wopts.warmup = std::min<size_t>(warmup, 2);
      wopts.zipf_skew = zipf;
      wopts.clock = clk.get();
      serial_unloaded = RunWorkload(harness, stack.runner(), wopts, &baseline);
    }
    const double serial_ms = std::max(serial_unloaded.mean_ms, 1e-3);
    const double slo_ms = 3.0 * serial_ms;

    // In smoke mode each scenario runs one scheduler (the i-th scenario gets
    // scheduler i mod |schedulers|) so all four apps and every scheduler are
    // covered end to end in a handful of runs.
    std::vector<SchedulerKind> scenario_schedulers = schedulers;
    if (smoke && !schedulers.empty()) {
      scenario_schedulers = {schedulers[s % schedulers.size()]};
    }

    // Unloaded reference for the overload bound: prefer the carousel x1
    // closed-loop run; fall back to the single-client serial run when the
    // sweep has no carousel pool_size-1 config (e.g. --pool_sizes=2).
    double unloaded_p99 = serial_unloaded.p99_ms;
    double unloaded_shed_fraction = 0.0;
    for (const SchedulerKind sched : scenario_schedulers) {
      const char* sched_name = sched == SchedulerKind::kSerial ? "serial" : "carousel";
      for (const size_t pool_size : pool_sizes) {
        // Closed loop.
        {
          const std::unique_ptr<SimClock> clk = sim ? std::make_unique<SimClock>() : nullptr;
          Stack stack = MakeStack(spec, sched, pool_size, clk.get());
          WorkloadOptions wopts;
          wopts.clients = clients;
          wopts.requests = requests;
          wopts.warmup = warmup;
          wopts.zipf_skew = zipf;
          wopts.slo_ms = slo_ms;
          wopts.clock = clk.get();
          RunRecord record;
          record.scenario = harness.name();
          record.scheduler = sched_name;
          record.pool_size = pool_size;
          record.mode = "closed";
          record.clients = clients;
          record.cache_capacity = spec.cache_capacity;
          record.zipf = zipf;
          record.report = RunWorkload(harness, stack.runner(), wopts, &baseline);
          record.work_fraction = stack.Stats().WorkFraction(model.n_layers);
          AttachStats(record, stack, sim);
          total_mismatches += record.report.mismatches;
          if (pool_size == 1 && sched == SchedulerKind::kCarousel) {
            unloaded_p99 = record.report.p99_ms;
            unloaded_shed_fraction = record.report.shed_fraction;
          }
          PrintRow(record);
          runs.push_back(std::move(record));
        }
        // Open loop (Poisson) at each offered-load factor of the measured
        // serial capacity.
        if (!smoke) {
          for (const double factor : rate_factors) {
            const std::unique_ptr<SimClock> clk =
                sim ? std::make_unique<SimClock>() : nullptr;
            Stack stack = MakeStack(spec, sched, pool_size, clk.get());
            WorkloadOptions wopts;
            wopts.clients = clients;
            wopts.requests = requests;
            wopts.warmup = warmup;
            wopts.zipf_skew = zipf;
            wopts.slo_ms = slo_ms;
            wopts.arrival_hz = factor * serial_unloaded.requests_per_sec;
            wopts.clock = clk.get();
            RunRecord record;
            record.scenario = harness.name();
            record.scheduler = sched_name;
            record.pool_size = pool_size;
            record.mode = "open";
            record.clients = clients;
            record.arrival_hz = wopts.arrival_hz;
            record.cache_capacity = spec.cache_capacity;
            record.zipf = zipf;
            record.report = RunWorkload(harness, stack.runner(), wopts, &baseline);
            record.work_fraction = stack.Stats().WorkFraction(model.n_layers);
            AttachStats(record, stack, sim);
            total_mismatches += record.report.mismatches;
            PrintRow(record);
            runs.push_back(std::move(record));
          }
        }
      }
    }

    // --- 2x overload phase: deadlines on, twice the closed-loop clients. --
    if (overload) {
      const std::unique_ptr<SimClock> clk = sim ? std::make_unique<SimClock>() : nullptr;
      Stack stack = MakeStack(spec, SchedulerKind::kCarousel, 1, clk.get());
      WorkloadOptions wopts;
      wopts.clients = clients * 2;
      wopts.requests = requests;
      wopts.warmup = warmup;
      wopts.zipf_skew = zipf;
      wopts.slo_ms = slo_ms;
      wopts.clock = clk.get();
      // Tighter than one carousel cycle: anything still queued when the
      // residents ahead of it exit has expired and sheds.
      wopts.deadline_ms = 1.2 * serial_ms;
      // In simulated time the closed loop would self-throttle at the virtual
      // service rate; drive the overload as an open-loop Poisson flood at 2x
      // the measured serial capacity instead, which is the regime the paper's
      // degradation story is about.
      if (sim) {
        wopts.arrival_hz = 2.0 * serial_unloaded.requests_per_sec;
      }
      RunRecord record;
      record.scenario = harness.name();
      record.scheduler = "carousel";
      record.pool_size = 1;
      record.mode = "overload";
      record.clients = wopts.clients;
      record.arrival_hz = wopts.arrival_hz;
      record.deadline_ms = wopts.deadline_ms;
      // Under overload a high-priority class keeps its service: the leading
      // quarter of clients submits priority-1 requests.
      wopts.high_fraction = 0.25;
      record.cache_capacity = spec.cache_capacity;
      record.zipf = zipf;
      record.report = RunWorkload(harness, stack.runner(), wopts, &baseline);
      record.work_fraction = stack.Stats().WorkFraction(model.n_layers);
      AttachStats(record, stack, sim);
      total_mismatches += record.report.mismatches;
      PrintRow(record);

      OverloadCheck check;
      check.scenario = harness.name();
      check.shed_fraction = record.report.shed_fraction;
      check.unloaded_shed_fraction = unloaded_shed_fraction;
      check.p99_ms = record.report.p99_ms;
      // Served-only p99 may exceed the unloaded run's by at most one
      // carousel interval: shedding happens at the next admission boundary. (Before the stats fix, shed ~0 ms latencies dragged the
      // overload percentiles *below* the unloaded ones.)
      check.bound_ms = unloaded_p99 + serial_ms * static_cast<double>(spec.max_inflight);
      check.ok = check.shed_fraction > check.unloaded_shed_fraction &&
                 record.report.p99_ms <= check.bound_ms;
      std::printf("  overload check: shed %.0f%% (unloaded %.0f%%), served p99 %.2f ms "
                  "(bound %.2f ms) -> %s\n",
                  100.0 * check.shed_fraction, 100.0 * check.unloaded_shed_fraction,
                  check.p99_ms, check.bound_ms, check.ok ? "ok" : "FAIL");
      overloads.push_back(check);
      runs.push_back(std::move(record));
    }

    // --- Cache-size × Zipf-skew sweep (first scenario only: the cache sits
    // above the apps, so its behaviour is scenario-agnostic). Each cell
    // replays the same overloaded open-loop flood — 2x the serial capacity,
    // deadlines just over one service time — through a serial stack fronted
    // by a result cache of 0 (off), head-sized, and full-universe capacity.
    // Cache-off the stack sheds roughly half the flood; the head-sized
    // cache answers the Zipf head without an engine pass, so the served
    // rate must rise by >= kCacheSpeedupFloor with 0 selection mismatches —
    // the PR's acceptance gate. -------------------------------------------
    if (cache_sweep && s == 0) {
      const size_t head_capacity = std::max<size_t>(2, harness.n_queries() / 4);
      for (const double cache_zipf : {0.7, 1.1}) {
        CacheCheck check;
        check.scenario = harness.name();
        check.zipf = cache_zipf;
        check.head_capacity = head_capacity;
        for (const size_t capacity : {size_t{0}, head_capacity, harness.n_queries()}) {
          const std::unique_ptr<SimClock> clk = sim ? std::make_unique<SimClock>() : nullptr;
          StackSpec sweep_spec = spec;
          sweep_spec.cache_capacity = capacity;
          Stack stack = MakeStack(sweep_spec, SchedulerKind::kSerial, 1, clk.get());
          WorkloadOptions wopts;
          wopts.clients = clients * 2;
          wopts.requests = requests;
          wopts.warmup = warmup;
          wopts.zipf_skew = cache_zipf;
          wopts.slo_ms = slo_ms;
          wopts.deadline_ms = 1.2 * serial_ms;
          wopts.arrival_hz = 2.0 * serial_unloaded.requests_per_sec;
          wopts.clock = clk.get();
          RunRecord record;
          record.scenario = harness.name();
          record.scheduler = "serial";
          record.pool_size = 1;
          record.mode = "cache";
          record.clients = wopts.clients;
          record.arrival_hz = wopts.arrival_hz;
          record.deadline_ms = wopts.deadline_ms;
          record.cache_capacity = capacity;
          record.zipf = cache_zipf;
          record.report = RunWorkload(harness, stack.runner(), wopts, &baseline);
          record.work_fraction = stack.Stats().WorkFraction(model.n_layers);
          AttachStats(record, stack, sim);
          total_mismatches += record.report.mismatches;
          if (capacity == 0) {
            check.served_cache_off = record.report.served_per_sec;
          } else if (capacity == head_capacity) {
            check.served_cache_head = record.report.served_per_sec;
            check.hit_rate = record.report.cache_hit_rate;
            check.mismatches = record.report.mismatches;
          }
          PrintRow(record);
          runs.push_back(std::move(record));
        }
        check.speedup = check.served_cache_off <= 0.0
                            ? 0.0
                            : check.served_cache_head / check.served_cache_off;
        check.ok = check.speedup >= kCacheSpeedupFloor && check.mismatches == 0;
        std::printf("  cache check (zipf %.1f): served %.2f -> %.2f req/s (%.2fx, floor "
                    "%.1fx), hit rate %.0f%% -> %s\n",
                    check.zipf, check.served_cache_off, check.served_cache_head, check.speedup,
                    kCacheSpeedupFloor, 100.0 * check.hit_rate, check.ok ? "ok" : "FAIL");
        cache_checks.push_back(check);
      }
    }
  }

  bool ok = total_mismatches == 0;
  for (const OverloadCheck& check : overloads) {
    ok = ok && check.ok;
  }
  for (const CacheCheck& check : cache_checks) {
    ok = ok && check.ok;
  }

  std::printf("\ntotal selection mismatches vs single-client serial: %zu (expected 0)\n",
              total_mismatches);
  PrintReplicaScaling(runs);
  std::printf("\nJSON summary:\n");
  EmitJson(stdout, model.name, device.name, smoke, sim, precision_name, runs, overloads,
           cache_checks, total_mismatches, ok);
  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    FILE* out = std::fopen(json_path.c_str(), "w");
    if (out != nullptr) {
      EmitJson(out, model.name, device.name, smoke, sim, precision_name, runs, overloads,
               cache_checks, total_mismatches, ok);
      std::fclose(out);
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::printf("could not open %s for writing\n", json_path.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace prism

int main(int argc, char** argv) { return prism::Main(argc, argv); }
