// The serving-workload layer: scenario harnesses over the app pipelines and
// the multi-client driver. Load-bearing properties: (a) RerankService is a
// drop-in Runner for every app pipeline, (b) selections are deterministic
// per query id no matter which scheduler serves the reranks or how many
// clients share the pipeline, and (c) the driver's
// report accounts exactly for served/shed under deadlines. Also a
// ThreadSanitizer target: many clients share one const pipeline and one
// service.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/core/service.h"
#include "src/data/metrics.h"
#include "src/serving/workload.h"
#include "src/tensor/quant.h"
#include "tests/test_util.h"

namespace prism {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = TestModel();
    ckpt_ = TestCheckpoint(config_);
  }

  ScenarioOptions FastScenario() const {
    ScenarioOptions options;
    options.n_queries = 4;
    return options;
  }

  ServiceOptions FastService(SchedulerKind kind, size_t max_inflight) const {
    ServiceOptions options;
    options.engine.device = FastDevice();
    options.scheduler = kind;
    options.max_inflight = max_inflight;
    options.compute_threads = 4;
    return options;
  }

  ModelConfig config_;
  std::string ckpt_;
};

TEST_F(WorkloadTest, HarnessSelectionsAreDeterministicPerQuery) {
  MemoryTracker tracker;
  PrismOptions eopts;
  eopts.device = FastDevice();
  PrismEngine engine(config_, ckpt_, eopts, &tracker);
  for (ScenarioKind kind : AllScenarios()) {
    const ScenarioHarness harness(kind, config_, FastScenario());
    ASSERT_GT(harness.n_queries(), 0u) << ScenarioKindName(kind);
    for (size_t q = 0; q < harness.n_queries(); ++q) {
      const ScenarioOutcome a = harness.Run(q, &engine);
      const ScenarioOutcome b = harness.Run(q, &engine);
      EXPECT_TRUE(a.served);
      EXPECT_FALSE(a.selection.empty()) << ScenarioKindName(kind);
      EXPECT_EQ(a.selection, b.selection) << ScenarioKindName(kind) << " query " << q;
    }
  }
}

TEST_F(WorkloadTest, ScenarioSelectionsArePinned) {
  // Every corpus, retrieval, agent and long-context shape constant feeds
  // these selections, so a changed constant shows here as a changed literal.
  MemoryTracker tracker;
  PrismOptions eopts;
  eopts.device = FastDevice();
  PrismEngine engine(config_, ckpt_, eopts, &tracker);
  using Selections = std::vector<std::vector<size_t>>;
  const std::vector<std::pair<ScenarioKind, Selections>> pinned = {
      {ScenarioKind::kFileSearch,
       {{61, 62, 60, 63}, {67, 66, 65, 64}, {70, 69, 71, 68}, {74, 73, 72, 75}}},
      {ScenarioKind::kRag,
       {{60, 62, 61, 63}, {64, 66, 65, 67}, {69, 70, 71, 68}, {74, 75, 72, 73}}},
      {ScenarioKind::kAgentMemory, {{3, 2}, {7, 7}, {17, 14}, {22, 22}}},
      {ScenarioKind::kLcs, {{6, 18, 12, 0}, {12, 18, 0, 6}, {18, 12, 0, 6}, {18, 6, 12, 0}}},
  };
  for (const auto& [kind, expected] : pinned) {
    const ScenarioHarness harness(kind, config_, FastScenario());
    EXPECT_EQ(BaselineSelections(harness, &engine), expected) << ScenarioKindName(kind);
  }
}

TEST_F(WorkloadTest, ServiceIsADropInRunnerForEveryScenario) {
  // The same pipeline, served by a raw engine and by a batching service:
  // identical selections. This is the apps → Runner → service layering the
  // serving stack promises.
  MemoryTracker tracker;
  PrismOptions eopts;
  eopts.device = FastDevice();
  PrismEngine engine(config_, ckpt_, eopts, &tracker);
  RerankService service(config_, ckpt_, FastService(SchedulerKind::kCarousel, 3), &tracker);
  for (ScenarioKind kind : AllScenarios()) {
    const ScenarioHarness harness(kind, config_, FastScenario());
    const std::vector<std::vector<size_t>> baseline = BaselineSelections(harness, &engine);
    for (size_t q = 0; q < harness.n_queries(); ++q) {
      EXPECT_EQ(harness.Run(q, &service).selection, baseline[q])
          << ScenarioKindName(kind) << " via " << service.name();
    }
  }
}

TEST_F(WorkloadTest, ServedPrecisionTiersMatchTheirSerialBaselines) {
  // Per reduced tier: a batching service under concurrent closed-loop
  // clients reports zero mismatches against that tier's own single-client
  // serial baseline (concurrency never changes what a tier serves), and the
  // tier's selections stay above its calibrated agreement floor against the
  // fp32 baseline (the same floors golden_test pins in its fixtures).
  const ScenarioHarness harness(ScenarioKind::kFileSearch, config_, FastScenario());
  MemoryTracker fp32_tracker;
  PrismOptions fp32_opts;
  fp32_opts.device = FastDevice();
  PrismEngine fp32_engine(config_, ckpt_, fp32_opts, &fp32_tracker);
  const std::vector<std::vector<size_t>> fp32_baseline =
      BaselineSelections(harness, &fp32_engine);

  struct Tier {
    Precision precision;
    double min_agreement;
  };
  for (const Tier tier : {Tier{Precision::kFp16, 1.0}, Tier{Precision::kInt8, 0.66},
                          Tier{Precision::kW4, 0.66}}) {
    const std::string ckpt = TestCheckpoint(config_, tier.precision);
    ServiceOptions sopts = FastService(SchedulerKind::kCarousel, 3);
    sopts.engine.precision = tier.precision;
    MemoryTracker tracker;
    RerankService service(config_, ckpt, sopts, &tracker);
    const std::vector<std::vector<size_t>> baseline = BaselineSelections(harness, &service);
    WorkloadOptions options;
    options.clients = 4;
    options.requests = 12;
    options.warmup = 2;
    const WorkloadReport report = RunWorkload(harness, &service, options, &baseline);
    EXPECT_EQ(report.served, 12u) << PrecisionName(tier.precision);
    EXPECT_EQ(report.errors, 0u) << PrecisionName(tier.precision);
    EXPECT_EQ(report.mismatches, 0u) << PrecisionName(tier.precision);
    ASSERT_EQ(baseline.size(), fp32_baseline.size());
    for (size_t q = 0; q < baseline.size(); ++q) {
      EXPECT_GE(TopKOverlap(baseline[q], fp32_baseline[q], baseline[q].size()),
                tier.min_agreement)
          << PrecisionName(tier.precision) << " query " << q;
    }
  }
}

TEST_F(WorkloadTest, ClosedLoopClientsMatchSerialBaseline) {
  MemoryTracker tracker;
  RerankService service(config_, ckpt_, FastService(SchedulerKind::kCarousel, 4), &tracker);
  const ScenarioHarness harness(ScenarioKind::kFileSearch, config_, FastScenario());
  const std::vector<std::vector<size_t>> baseline = BaselineSelections(harness, &service);
  WorkloadOptions options;
  options.clients = 4;
  options.requests = 16;
  options.warmup = 4;
  const WorkloadReport report = RunWorkload(harness, &service, options, &baseline);
  EXPECT_EQ(report.requests, 16u);
  EXPECT_EQ(report.served, 16u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.mismatches, 0u);
  EXPECT_GT(report.requests_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(report.served_per_sec, report.requests_per_sec);  // Nothing shed.
  EXPECT_LE(report.p50_ms, report.p99_ms);
  EXPECT_LE(report.p99_ms, report.max_ms);
  EXPECT_GT(report.mean_quality, 0.0);
  EXPECT_DOUBLE_EQ(report.slo_attainment, 1.0);  // No SLO set.
  // Baseline (4 queries) + warmup + measured requests all hit the service.
  EXPECT_EQ(service.stats().requests, 24u);
}

TEST_F(WorkloadTest, OpenLoopPoissonArrivalsServeAndMatch) {
  MemoryTracker tracker;
  RerankService service(config_, ckpt_, FastService(SchedulerKind::kCarousel, 3), &tracker);
  const ScenarioHarness harness(ScenarioKind::kLcs, config_, FastScenario());
  const std::vector<std::vector<size_t>> baseline = BaselineSelections(harness, &service);
  WorkloadOptions options;
  options.clients = 3;
  options.requests = 9;
  options.warmup = 3;
  options.arrival_hz = 200.0;  // Brisk but sustainable on the fast device.
  const WorkloadReport report = RunWorkload(harness, &service, options, &baseline);
  EXPECT_EQ(report.served, 9u);
  EXPECT_EQ(report.mismatches, 0u);
  EXPECT_GT(report.p50_ms, 0.0);
}

TEST_F(WorkloadTest, DeadlinesShedUnderOverloadAndAreAccountedExactly) {
  // Many clients, one serial service, a deadline shorter than the queue
  // under contention: requests shed. Retimed onto a SimClock with the
  // virtual service-cost model: the 10 virtual-ms serial service time and
  // the 25 virtual-ms deadline make overload — and therefore the shed set —
  // a deterministic property of the schedule, where the old wall-clock
  // version (deadline 0.01 real ms) depended on host speed. The report and
  // the service stats must agree, shed requests must carry their queue
  // wait, and the report's served-only percentiles must stay
  // self-consistent (no ~0 ms shed turnarounds pulling them down).
  SimClock clock;
  MemoryTracker tracker;
  ServiceOptions sopts = FastService(SchedulerKind::kSerial, 1);
  // A SimClock brings the virtual cost model: 8 ms per pass + 2 ms per
  // request = 10 per request.
  sopts.clock = &clock;
  RerankService service(config_, ckpt_, sopts, &tracker);
  const ScenarioHarness harness(ScenarioKind::kFileSearch, config_, FastScenario());
  WorkloadOptions options;
  options.clients = 6;
  options.requests = 18;
  options.warmup = 0;
  options.deadline_ms = 25.0;  // Third in line waits 2 × 10 ms; fourth sheds.
  options.high_fraction = 0.5;
  options.clock = &clock;
  const WorkloadReport report = RunWorkload(harness, &service, options);
  EXPECT_EQ(report.served + report.shed + report.errors, 18u);
  EXPECT_GT(report.shed, 0u);
  EXPECT_GT(report.served, 0u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(report.shed_fraction, 0.0);
  // Shed turnarounds are not delivered throughput.
  EXPECT_LT(report.served_per_sec, report.requests_per_sec);
  // Shed requests carried their (virtual) queue wait into the report.
  EXPECT_GT(report.mean_queue_wait_ms, 0.0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 18u);
  EXPECT_EQ(stats.shed, report.shed);
  EXPECT_EQ(stats.served(), report.served);
  // Served-only percentiles come from the report: every served request
  // pays the 10 virtual-ms service charge, so no shed ~0 ms turnaround may
  // pull the median below it.
  EXPECT_GE(report.p50_ms, 10.0);
}

TEST_F(WorkloadTest, SimulatedWorkloadReplaysByteIdentically) {
  // The determinism property: one seed fully determines a
  // simulated run. Every scheduler, open loop at an overloading rate with
  // deadlines (so served/shed sequencing is exercised, not just selections):
  // two runs must agree on every per-request status and every metric to the
  // last bit.
  const ScenarioHarness harness(ScenarioKind::kFileSearch, config_, FastScenario());
  for (const SchedulerKind kind : {SchedulerKind::kSerial, SchedulerKind::kCarousel}) {
    const auto run = [&] {
      SimClock clock;
      MemoryTracker tracker;
      ServiceOptions sopts = FastService(kind, kind == SchedulerKind::kSerial ? 1 : 3);
      sopts.clock = &clock;
      WorkloadOptions wopts;
      wopts.clients = 4;
      wopts.requests = 24;
      wopts.warmup = 4;
      wopts.arrival_hz = 150.0;  // ~1.5× the serial service rate: overload.
      wopts.deadline_ms = 40.0;
      wopts.high_fraction = 0.25;
      wopts.clock = &clock;
      RerankService service(config_, ckpt_, sopts, &tracker);
      const WorkloadReport report = RunWorkload(harness, &service, wopts);
      EXPECT_EQ(report.statuses.size(), wopts.requests);
      return report.SummaryJson();
    };
    const std::string first = run();
    const std::string second = run();
    EXPECT_EQ(first, second) << "scheduler " << static_cast<int>(kind);
  }
}

TEST_F(WorkloadTest, CacheFrontedSimulatedWorkloadReplaysByteIdentically) {
  // The result-cache tier joins the determinism contract under heavy
  // coalescing: 12 clients behind a 2-entry cache at Zipf 1.2, so fills
  // finish, coalesced waiters wake and clients re-issue at one virtual
  // instant all the time, and only the SimClock's one-runner rule orders
  // them. Every scheduler, closed loop and open loop at an overloading rate
  // with deadlines (the cache's park/shed paths, fills failing under shed
  // pressure), must replay byte-identically.
  ScenarioOptions scenario = FastScenario();
  scenario.n_queries = 8;
  const ScenarioHarness harness(ScenarioKind::kFileSearch, config_, scenario);
  for (const SchedulerKind kind : {SchedulerKind::kSerial, SchedulerKind::kCarousel}) {
    for (const double arrival_hz : {0.0, 400.0}) {
      const auto run = [&] {
        SimClock clock;
        MemoryTracker tracker;
        ServiceOptions sopts = FastService(kind, kind == SchedulerKind::kSerial ? 1 : 4);
        sopts.clock = &clock;
        RerankService service(config_, ckpt_, sopts, &tracker);
        ResultCacheOptions copts;
        copts.capacity = 2;  // Head-sized: hits, evictions, and refills all occur.
        copts.clock = &clock;
        ResultCache cache(&service, copts);
        WorkloadOptions wopts;
        wopts.clients = 12;
        wopts.requests = 600;
        wopts.warmup = 12;
        wopts.zipf_skew = 1.2;
        wopts.arrival_hz = arrival_hz;
        wopts.deadline_ms = arrival_hz > 0.0 ? 30.0 : 0.0;
        wopts.clock = &clock;
        WorkloadReport report = RunWorkload(harness, &cache, wopts);
        report.AttachCacheStats(cache.stats());
        EXPECT_EQ(report.statuses.size(), wopts.requests);
        EXPECT_GT(report.cache_coalesced, 0u);
        return report.SummaryJson();
      };
      const std::string first = run();
      const std::string second = run();
      EXPECT_EQ(first, second) << "scheduler " << static_cast<int>(kind) << ", arrival_hz "
                               << arrival_hz;
    }
  }
}

TEST_F(WorkloadTest, TaggingRunnerStampsPriorityAndDeadline) {
  class CaptureRunner : public Runner {
   public:
    RerankResult Rerank(const RerankRequest& request) override {
      priority = request.priority;
      deadline_ms = request.deadline_ms;
      RerankResult result;
      result.topk.resize(std::min(request.k, request.docs.size()));
      return result;
    }
    std::string name() const override { return "capture"; }
    int priority = -1;
    double deadline_ms = -1.0;
  };
  CaptureRunner capture;
  TaggingRunner tagged(&capture, /*priority=*/2, /*deadline_ms=*/33.0);
  RerankRequest request;
  request.docs.resize(3);
  request.k = 2;
  tagged.Rerank(request);
  EXPECT_EQ(capture.priority, 2);
  EXPECT_DOUBLE_EQ(capture.deadline_ms, 33.0);
}

}  // namespace
}  // namespace prism
