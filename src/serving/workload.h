// Multi-client scenario workloads over the serving stack.
//
// PRs 2–4 built the concurrent serving layer (Serial/Batch/Carousel
// schedulers, ServicePool, deadline shedding); this subsystem puts realistic
// traffic on it. A ScenarioHarness wraps one of the paper's application
// pipelines (semantic file search, RAG §6.3, agent memory §6.3/Fig 12,
// long-context selection §6.4/Fig 14) behind a uniform query-by-index
// interface, and RunWorkload drives N closed- or open-loop clients through
// that harness against any Runner — a raw engine, a RerankService (any
// scheduler), or a ServicePool — with Zipf-skewed query popularity, Poisson
// arrivals, per-client priority classes, deadlines, and a warmup/measure
// split. The report carries served-only latency percentiles, shed fraction,
// SLO attainment, and per-query selection signatures so a sweep can prove
// that no scheduler/pool combination ever changes a decision.
#ifndef PRISM_SRC_SERVING_WORKLOAD_H_
#define PRISM_SRC_SERVING_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/apps/agent_memory.h"
#include "src/apps/corpus.h"
#include "src/apps/file_search.h"
#include "src/apps/lcs.h"
#include "src/apps/rag.h"
#include "src/common/clock.h"
#include "src/core/service.h"
#include "src/model/config.h"
#include "src/runtime/runner.h"
#include "src/serving/result_cache.h"

namespace prism {

// The four application scenarios of the paper's evaluation.
enum class ScenarioKind { kFileSearch, kRag, kAgentMemory, kLcs };

const char* ScenarioKindName(ScenarioKind kind);
// Parses "file_search" / "rag" / "agent_memory" / "lcs" (CHECK otherwise).
ScenarioKind ScenarioKindByName(const std::string& name);
std::vector<ScenarioKind> AllScenarios();

struct ScenarioOptions {
  uint64_t seed = 0x5CE0;
  // Distinct query ids (the Zipf popularity universe). For the agent
  // scenario this is the number of task types.
  size_t n_queries = 8;
  size_t k = 4;
  // Corpus shape (file_search, rag).
  size_t relevant_per_query = 4;
  size_t background_docs = 60;
  // Downstream generators run at bench speed by default so the serving
  // stack, not simulated-LLM sleep, dominates measured latency.
  SimLlmConfig llm{.prefill_tokens_per_sec = 2e6, .decode_tokens_per_sec = 2e5};
  // Agent-memory scenario shape (tasks are the query universe; each request
  // replays one whole task).
  size_t agent_steps_per_task = 2;
  double agent_env_step_ms = 1.0;
  size_t agent_vlm_prompt_tokens = 500;
  size_t agent_vlm_new_tokens = 5;
  // Long-context-selection shape.
  size_t lcs_segments = 24;
  size_t lcs_relevant = 4;
};

// What one scenario request produced. `selection` is the scenario's
// deterministic decision signature (chosen docs / context / segment set /
// per-step trajectory picks): for a served request it is a pure function of
// (scenario seed, query id), whatever scheduler or pool served the reranks —
// the property the mismatch checks in RunWorkload verify.
struct ScenarioOutcome {
  bool served = false;  // Every rerank the request issued came back ok.
  bool shed = false;    // At least one rerank was shed (kDeadlineExceeded).
  bool error = false;   // At least one rerank failed with another status.
  std::vector<size_t> selection;
  double quality = 0.0;  // Precision / accuracy / task success (0 or 1).
  double rerank_ms = 0.0;
  double queue_wait_ms = 0.0;  // Max scheduler admission wait observed.
};

// One application pipeline behind a uniform, thread-safe query-by-index
// interface. Construction builds the corpus/indexes once; Run may be called
// from any number of client threads concurrently (the underlying pipelines
// are const-query, see src/apps/).
class ScenarioHarness {
 public:
  ScenarioHarness(ScenarioKind kind, const ModelConfig& model, ScenarioOptions options);

  ScenarioKind kind() const { return kind_; }
  const char* name() const { return ScenarioKindName(kind_); }
  size_t n_queries() const { return n_queries_; }

  // Runs query `query_idx % n_queries()` end to end through `runner` (which
  // must itself be thread-safe when Run is called concurrently — a
  // RerankService or ServicePool is; a raw engine is too).
  ScenarioOutcome Run(size_t query_idx, Runner* runner) const;

 private:
  ScenarioKind kind_;
  ScenarioOptions options_;
  size_t n_queries_ = 0;
  std::unique_ptr<SearchCorpus> corpus_;         // file_search, rag
  std::unique_ptr<FileSearchApp> file_search_;
  std::unique_ptr<RagPipeline> rag_;
  std::unique_ptr<AgentMemoryApp> agent_;
  std::unique_ptr<LcsApp> lcs_;
};

// Stamps a priority class and deadline onto every request that flows
// through it. The app pipelines build their RerankRequests internally, so
// admission attributes enter here, between the pipeline and the service.
// Thread-compatible: one instance per client thread.
class TaggingRunner : public Runner {
 public:
  TaggingRunner(Runner* inner, int priority, double deadline_ms)
      : inner_(inner), priority_(priority), deadline_ms_(deadline_ms) {}

  RerankResult Rerank(const RerankRequest& request) override;
  std::string name() const override { return inner_->name(); }

 private:
  Runner* inner_;
  int priority_;
  double deadline_ms_;
};

struct WorkloadOptions {
  size_t clients = 4;
  // Measured requests (after warmup). Warmup requests run identically but
  // are excluded from every aggregate below.
  size_t requests = 64;
  size_t warmup = 8;
  // Query-popularity skew across the id universe (reuses ZipfSampler):
  // query 0 is the hottest. 0 would be uniform; natural traffic is ~0.9–1.1.
  double zipf_skew = 0.9;
  // > 0: open-loop Poisson arrivals at this aggregate rate (requests/s);
  // clients sleep until each request's scheduled arrival and latency is
  // measured *from the scheduled arrival*, so queueing delay under overload
  // is visible. 0: closed loop (each client issues the next request when
  // the previous completes).
  double arrival_hz = 0.0;
  // Deadline stamped on every rerank (0 = none). Under overload the
  // schedulers shed expired requests instead of queueing unboundedly.
  double deadline_ms = 0.0;
  // The leading `high_fraction` of clients send priority `high_priority`
  // requests; the rest send priority 0.
  double high_fraction = 0.0;
  int high_priority = 1;
  // Served-latency SLO for the attainment metric (0 = no SLO, reported 1.0).
  double slo_ms = 0.0;
  // Seed-to-schedule contract: `seed` fully determines the traffic the
  // driver offers, independent of thread interleaving and host speed —
  //   - the open-loop aggregate Poisson arrival schedule: one pre-generated
  //     timeline from Rng(MixSeed(seed, 0xA221)), arrival i at the i-th
  //     cumulative exponential gap;
  //   - the query-id schedule: one pre-generated Zipf draw per request
  //     index from Rng(MixSeed(seed, 0x51D5)), so request i always asks the
  //     same query no matter which client issues it;
  //   - the request → client partition: client c owns request indexes
  //     i ≡ c (mod clients), so priority classes (by client index) are a
  //     pure function of the request index too.
  // What remains host-dependent under the wall clock is only *when* things
  // complete; under a SimClock (below) completions are virtual-time events
  // and the entire run is deterministic.
  uint64_t seed = 0x10AD;
  // Time source for arrival pacing, latency measurement, and the
  // warmup/measure machinery. nullptr (default) = shared wall clock. Point
  // it (and ServiceOptions::clock) at one SimClock to replay the workload
  // in deterministic virtual time; client threads register as simulation
  // participants for its quiescence protocol.
  Clock* clock = nullptr;
};

struct WorkloadReport {
  size_t requests = 0;  // Measured (excludes warmup).
  size_t served = 0;
  size_t shed = 0;
  size_t errors = 0;
  double wall_seconds = 0.0;  // Measure phase only.
  // Completed requests (served + shed + errors) per second — the rate the
  // clients pushed through. Shed requests turn around in ~0 ms, so under
  // overload this overstates useful throughput; served_per_sec below is
  // the delivered rate. The two are equal when nothing sheds.
  double requests_per_sec = 0.0;
  double served_per_sec = 0.0;
  // Served-only client-observed latency (ms). Open-loop latencies are
  // measured from the scheduled arrival.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double shed_fraction = 0.0;
  double slo_attainment = 1.0;       // Served within slo_ms / served.
  double mean_quality = 0.0;         // Served only.
  double mean_queue_wait_ms = 0.0;   // All measured requests (shed included).
  // First served selection per query id (empty where never served).
  std::vector<std::vector<size_t>> selections;
  // Served requests whose selection differed from the baseline (when given)
  // or from the first served occurrence of the same query id (always
  // checked): any nonzero value means a scheduler/pool combination changed
  // a decision.
  size_t mismatches = 0;
  // Per measured request, in request-index order: 'S' served, 'D' shed
  // (deadline), 'E' error. Two runs of the same simulated workload must
  // produce identical sequences — the determinism property the sim-mode
  // tests assert.
  std::string statuses;

  // --- Cache accounting (filled by AttachCacheStats / AttachServingStats
  // after the run; all zero when the corresponding tier is absent). -------
  // Result-cache counters (src/serving/result_cache.h): how many reranks
  // the front-end cache absorbed without an engine pass.
  size_t cache_lookups = 0;
  size_t cache_hits = 0;            // Exact-key entry resident on arrival.
  size_t cache_coalesced = 0;       // Served by another request's fill.
  size_t cache_shed_waiting = 0;    // Deadline expired while parked.
  double cache_hit_rate = 0.0;
  // Embedding-cache counters aggregated across the serving stack.
  int64_t embed_hits = 0;
  int64_t embed_misses = 0;
  int64_t embed_miss_bytes = 0;
  double embed_hit_rate = 0.0;

  // Folds a served-stack stats snapshot (RerankService::stats() or
  // ServicePool::stats().aggregate) into the embed_* fields. Call after the
  // run, before SummaryJson.
  void AttachServingStats(const ServiceStats& stats);
  // Folds a ResultCache stats snapshot into the cache_* fields.
  void AttachCacheStats(const ResultCacheStats& stats);

  // Byte-comparable summary: every counter and metric above (selections
  // digested per query id), doubles printed with %.17g so any bit
  // difference between two runs shows. Two RunWorkload calls are
  // equivalent iff their SummaryJson strings are equal.
  std::string SummaryJson() const;
};

// Single-client, in-order pass over every query id; the reference the
// multi-client runs are compared against. CHECKs that every request is
// served (run it without deadlines against an unloaded runner).
std::vector<std::vector<size_t>> BaselineSelections(const ScenarioHarness& scenario,
                                                    Runner* runner);

// Drives `options.clients` client threads through the scenario against
// `runner`. Thread-safe with respect to `runner` (each client wraps it in
// its own TaggingRunner).
WorkloadReport RunWorkload(const ScenarioHarness& scenario, Runner* runner,
                           const WorkloadOptions& options,
                           const std::vector<std::vector<size_t>>* baseline = nullptr);

}  // namespace prism

#endif  // PRISM_SRC_SERVING_WORKLOAD_H_
