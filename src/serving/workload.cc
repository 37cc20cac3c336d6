#include "src/serving/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/common/check.h"
#include "src/common/percentile.h"
#include "src/common/rng.h"
#include "src/common/zipf.h"
#include "src/data/dataset.h"

namespace prism {

namespace {

// Every scenario's corpus, indexes and contexts derive from this seed; a
// workload's own seed decides only the traffic over them.
constexpr uint64_t kScenarioSeed = 0x5CE0;
// Corpus shape (file_search, rag).
constexpr size_t kRelevantPerQuery = 4;
constexpr size_t kBackgroundDocs = 60;
// Downstream generators run at bench speed so the serving stack, not
// simulated-LLM sleep, dominates measured latency.
constexpr SimLlmConfig kScenarioLlm{.prefill_tokens_per_sec = 2e6,
                                    .decode_tokens_per_sec = 2e5};
// Agent-memory shape (tasks are the query universe; each request replays
// one whole task).
constexpr size_t kAgentStepsPerTask = 2;
constexpr double kAgentEnvStepMs = 1.0;
constexpr size_t kAgentVlmPromptTokens = 500;
constexpr size_t kAgentVlmNewTokens = 5;
// Long-context-selection shape.
constexpr size_t kLcsSegments = 24;
constexpr size_t kLcsRelevant = 4;
// Priority of the requests the leading `high_fraction` of clients send.
constexpr int kHighPriority = 1;

// Captures per-request rerank status and admission wait without changing
// the result the pipeline sees. One instance per ScenarioHarness::Run call,
// so no synchronization is needed.
class StatusProbe final : public Runner {
 public:
  explicit StatusProbe(Runner* inner) : inner_(inner) {}

  RerankResult Rerank(const RerankRequest& request) override {
    RerankResult result = inner_->Rerank(request);
    if (result.status.code() == StatusCode::kDeadlineExceeded) {
      shed_ = true;
    } else if (!result.status.ok()) {
      error_ = true;
    }
    queue_wait_ms_ = std::max(queue_wait_ms_, result.stats.queue_wait_ms);
    return result;
  }

  std::string name() const override { return inner_->name(); }

  bool shed() const { return shed_; }
  bool error() const { return error_; }
  double queue_wait_ms() const { return queue_wait_ms_; }

 private:
  Runner* inner_;
  bool shed_ = false;
  bool error_ = false;
  double queue_wait_ms_ = 0.0;
};

}  // namespace

const char* ScenarioKindName(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kFileSearch:
      return "file_search";
    case ScenarioKind::kRag:
      return "rag";
    case ScenarioKind::kAgentMemory:
      return "agent_memory";
    case ScenarioKind::kLcs:
      return "lcs";
  }
  return "unknown";
}

ScenarioKind ScenarioKindByName(const std::string& name) {
  for (ScenarioKind kind : AllScenarios()) {
    if (name == ScenarioKindName(kind)) {
      return kind;
    }
  }
  PRISM_CHECK_MSG(false, ("unknown scenario: " + name).c_str());
  return ScenarioKind::kFileSearch;
}

std::vector<ScenarioKind> AllScenarios() {
  return {ScenarioKind::kFileSearch, ScenarioKind::kRag, ScenarioKind::kAgentMemory,
          ScenarioKind::kLcs};
}

ScenarioHarness::ScenarioHarness(ScenarioKind kind, const ModelConfig& model,
                                 ScenarioOptions options)
    : kind_(kind), options_(options) {
  PRISM_CHECK_GT(options_.n_queries, 0u);
  switch (kind_) {
    case ScenarioKind::kFileSearch: {
      corpus_ = std::make_unique<SearchCorpus>(DatasetByName("wikipedia"), model,
                                               options_.n_queries, kRelevantPerQuery,
                                               kBackgroundDocs, kScenarioSeed);
      file_search_ = std::make_unique<FileSearchApp>(corpus_.get(), kScenarioSeed);
      n_queries_ = corpus_->queries().size();
      break;
    }
    case ScenarioKind::kRag: {
      corpus_ = std::make_unique<SearchCorpus>(DatasetByName("beir-nq"), model,
                                               options_.n_queries, kRelevantPerQuery,
                                               kBackgroundDocs, kScenarioSeed);
      RagOptions rag_options;
      rag_options.k = options_.k;
      rag_options.llm = kScenarioLlm;
      rag_ = std::make_unique<RagPipeline>(corpus_.get(), rag_options, kScenarioSeed);
      n_queries_ = corpus_->queries().size();
      break;
    }
    case ScenarioKind::kAgentMemory: {
      AgentWorkloadProfile profile = VideoWorkload();
      profile.n_tasks = options_.n_queries;
      profile.steps_per_task = kAgentStepsPerTask;
      profile.env_step_ms = kAgentEnvStepMs;
      profile.vlm_prompt_tokens = kAgentVlmPromptTokens;
      profile.vlm_new_tokens = kAgentVlmNewTokens;
      agent_ = std::make_unique<AgentMemoryApp>(profile, model, kScenarioSeed);
      n_queries_ = agent_->n_tasks();
      break;
    }
    case ScenarioKind::kLcs: {
      LcsOptions lcs_options;
      lcs_options.n_segments = kLcsSegments;
      lcs_options.relevant_segments = kLcsRelevant;
      lcs_options.k = options_.k;
      lcs_options.llm = kScenarioLlm;
      lcs_ = std::make_unique<LcsApp>(lcs_options, model, kScenarioSeed);
      n_queries_ = options_.n_queries;
      break;
    }
  }
  PRISM_CHECK_GT(n_queries_, 0u);
}

ScenarioOutcome ScenarioHarness::Run(size_t query_idx, Runner* runner) const {
  StatusProbe probe(runner);
  const size_t q = query_idx % n_queries_;
  ScenarioOutcome outcome;
  switch (kind_) {
    case ScenarioKind::kFileSearch: {
      const FileSearchResult result = file_search_->Search(q, options_.k, &probe);
      outcome.selection = result.top_docs;
      outcome.quality = result.precision;
      break;
    }
    case ScenarioKind::kRag: {
      const RagResult result = rag_->Query(q, &probe);
      outcome.selection = result.context_docs;
      outcome.quality = result.accuracy;
      break;
    }
    case ScenarioKind::kAgentMemory: {
      const AgentTaskResult result = agent_->RunTask(q, &probe);
      outcome.selection = result.picks;
      outcome.quality = result.success ? 1.0 : 0.0;
      break;
    }
    case ScenarioKind::kLcs: {
      const LcsResult result = lcs_->Answer(q, &probe);
      outcome.selection = result.chosen;
      outcome.quality = result.precision;
      break;
    }
  }
  outcome.shed = probe.shed();
  outcome.error = probe.error();
  outcome.served = !probe.shed() && !probe.error();
  outcome.queue_wait_ms = probe.queue_wait_ms();
  return outcome;
}

RerankResult TaggingRunner::Rerank(const RerankRequest& request) {
  RerankRequest tagged = request;
  tagged.priority = priority_;
  tagged.deadline_ms = deadline_ms_;
  return inner_->Rerank(tagged);
}

std::vector<std::vector<size_t>> BaselineSelections(const ScenarioHarness& scenario,
                                                    Runner* runner) {
  std::vector<std::vector<size_t>> selections;
  selections.reserve(scenario.n_queries());
  for (size_t q = 0; q < scenario.n_queries(); ++q) {
    ScenarioOutcome outcome = scenario.Run(q, runner);
    PRISM_CHECK_MSG(outcome.served, "baseline request was not served");
    selections.push_back(std::move(outcome.selection));
  }
  return selections;
}

void WorkloadReport::AttachServingStats(const ServiceStats& stats) {
  embed_hits = stats.embed_hits;
  embed_misses = stats.embed_misses;
  embed_miss_bytes = stats.embed_miss_bytes;
  embed_hit_rate = stats.EmbedHitRate();
}

void WorkloadReport::AttachCacheStats(const ResultCacheStats& stats) {
  cache_lookups = stats.lookups;
  cache_hits = stats.hits;
  cache_coalesced = stats.coalesced;
  cache_shed_waiting = stats.shed_waiting;
  cache_hit_rate = stats.HitRate();
}

std::string WorkloadReport::SummaryJson() const {
  char buf[256];
  std::string json = "{";
  const auto add_size = [&](const char* key, size_t value, bool comma = true) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%zu%s", key, value, comma ? "," : "");
    json += buf;
  };
  const auto add_double = [&](const char* key, double value, bool comma = true) {
    // %.17g round-trips a double exactly: any bit difference between two
    // runs surfaces as a byte difference here.
    std::snprintf(buf, sizeof(buf), "\"%s\":%.17g%s", key, value, comma ? "," : "");
    json += buf;
  };
  add_size("requests", requests);
  add_size("served", served);
  add_size("shed", shed);
  add_size("errors", errors);
  add_size("mismatches", mismatches);
  add_double("wall_seconds", wall_seconds);
  add_double("requests_per_sec", requests_per_sec);
  add_double("served_per_sec", served_per_sec);
  add_double("p50_ms", p50_ms);
  add_double("p99_ms", p99_ms);
  add_double("mean_ms", mean_ms);
  add_double("max_ms", max_ms);
  add_double("shed_fraction", shed_fraction);
  add_double("slo_attainment", slo_attainment);
  add_double("mean_quality", mean_quality);
  add_double("mean_queue_wait_ms", mean_queue_wait_ms);
  add_size("cache_lookups", cache_lookups);
  add_size("cache_hits", cache_hits);
  add_size("cache_coalesced", cache_coalesced);
  add_size("cache_shed_waiting", cache_shed_waiting);
  add_double("cache_hit_rate", cache_hit_rate);
  const auto add_int64 = [&](const char* key, int64_t value) {
    std::snprintf(buf, sizeof(buf), "\"%s\":%lld,", key, static_cast<long long>(value));
    json += buf;
  };
  add_int64("embed_hits", embed_hits);
  add_int64("embed_misses", embed_misses);
  add_int64("embed_miss_bytes", embed_miss_bytes);
  add_double("embed_hit_rate", embed_hit_rate);
  json += "\"selections\":[";
  for (size_t q = 0; q < selections.size(); ++q) {
    json += q == 0 ? "[" : ",[";
    for (size_t i = 0; i < selections[q].size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%zu", i == 0 ? "" : ",", selections[q][i]);
      json += buf;
    }
    json += "]";
  }
  json += "],\"statuses\":\"" + statuses + "\"}";
  return json;
}

WorkloadReport RunWorkload(const ScenarioHarness& scenario, Runner* runner,
                           const WorkloadOptions& options,
                           const std::vector<std::vector<size_t>>* baseline) {
  PRISM_CHECK_GT(options.clients, 0u);
  PRISM_CHECK_GT(options.requests, 0u);
  if (baseline != nullptr) {
    PRISM_CHECK_EQ(baseline->size(), scenario.n_queries());
  }
  Clock* clock = ResolveClock(options.clock);
  const size_t total = options.warmup + options.requests;

  struct Record {
    size_t qid = 0;
    bool served = false;
    bool shed = false;
    bool error = false;
    double issue_ms = 0.0;  // Absolute clock instant the request counts from.
    double done_ms = 0.0;   // Absolute clock instant the request completed.
    double latency_ms = 0.0;
    double quality = 0.0;
    double queue_wait_ms = 0.0;
    std::vector<size_t> selection;
  };
  std::vector<Record> records(total);

  // Open loop: one aggregate Poisson arrival process, scheduled up front —
  // the timeline is a pure function of the seed (see the seed-to-schedule
  // contract in workload.h).
  std::vector<double> arrival_ms;
  if (options.arrival_hz > 0.0) {
    arrival_ms.resize(total);
    Rng rng(MixSeed(options.seed, 0xA221));
    const double mean_gap_ms = 1000.0 / options.arrival_hz;
    double t = 0.0;
    for (size_t i = 0; i < total; ++i) {
      // Inverse-CDF exponential; NextDouble is in [0, 1), so 1 - u > 0.
      t += -mean_gap_ms * std::log(1.0 - rng.NextDouble());
      arrival_ms[i] = t;
    }
  }

  // Query-id schedule, pre-generated per request index: request i asks
  // qids[i] regardless of which client thread issues it or when.
  const ZipfSampler popularity(scenario.n_queries(), options.zipf_skew);
  std::vector<size_t> qids(total);
  {
    Rng rng(MixSeed(options.seed, 0x51D5));
    for (size_t i = 0; i < total; ++i) {
      qids[i] = static_cast<size_t>(popularity.Sample(rng));
    }
  }

  const size_t high_clients = static_cast<size_t>(
      std::lround(options.high_fraction * static_cast<double>(options.clients)));
  const double start_ms = clock->NowMs();

  std::vector<std::thread> clients;
  clients.reserve(options.clients);
  // Reserve every client's simulation membership before any thread starts
  // (no-op on the wall clock): an early-starting client must not advance
  // virtual time past arrival tags its still-starting peers own, and the
  // clients first run in index order, not host start order.
  const uint64_t first_slot = clock->ExpectParticipants(options.clients);
  for (size_t c = 0; c < options.clients; ++c) {
    clients.emplace_back([&, c] {
      // Client threads are simulation participants (no-op on wall clock):
      // the SimClock advances only when every one of them is blocked.
      const ClockMembership membership(clock, first_slot + c);
      const int priority = c < high_clients ? kHighPriority : 0;
      TaggingRunner tagged(runner, priority, options.deadline_ms);
      // Static partition: client c owns request indexes ≡ c (mod clients).
      // Unlike a shared work-claiming counter, the request → client mapping
      // (and so each request's priority class) is interleaving-free.
      for (size_t i = c; i < total; i += options.clients) {
        Record& record = records[i];
        if (!arrival_ms.empty()) {
          // A client behind schedule issues at once.
          const double scheduled_ms = start_ms + arrival_ms[i];
          clock->SleepUntil(scheduled_ms);
          // Open-loop latency runs from the *scheduled* arrival: time spent
          // waiting for a free client thread is queueing delay, not a
          // measurement artifact to hide.
          record.issue_ms = scheduled_ms;
        } else {
          // Closed loop: issue as soon as the previous request completed.
          record.issue_ms = clock->NowMs();
        }
        record.qid = qids[i];
        ScenarioOutcome outcome = scenario.Run(record.qid, &tagged);
        record.done_ms = clock->NowMs();
        record.latency_ms = record.done_ms - record.issue_ms;
        record.served = outcome.served;
        record.shed = outcome.shed;
        record.error = outcome.error;
        record.quality = outcome.quality;
        record.queue_wait_ms = outcome.queue_wait_ms;
        record.selection = std::move(outcome.selection);
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }

  WorkloadReport report;
  report.requests = options.requests;
  report.selections.resize(scenario.n_queries());
  report.statuses.reserve(options.requests);
  std::vector<double> served_latencies;
  served_latencies.reserve(options.requests);
  double quality_sum = 0.0;
  double queue_wait_sum = 0.0;
  size_t within_slo = 0;
  // The measure window, from per-record instants (join-time clock reads
  // would race e.g. a carousel's linger advance): first measured issue to
  // last measured completion.
  double measure_start_ms = records[options.warmup].issue_ms;
  double measure_end_ms = measure_start_ms;
  for (size_t i = options.warmup; i < total; ++i) {
    const Record& record = records[i];
    measure_start_ms = std::min(measure_start_ms, record.issue_ms);
    measure_end_ms = std::max(measure_end_ms, record.done_ms);
    queue_wait_sum += record.queue_wait_ms;
    if (record.shed) {
      report.statuses.push_back('D');
      ++report.shed;
      continue;
    }
    if (!record.served) {
      report.statuses.push_back('E');
      ++report.errors;
      continue;
    }
    report.statuses.push_back('S');
    ++report.served;
    served_latencies.push_back(record.latency_ms);
    report.max_ms = std::max(report.max_ms, record.latency_ms);
    report.mean_ms += record.latency_ms;
    quality_sum += record.quality;
    if (options.slo_ms <= 0.0 || record.latency_ms <= options.slo_ms) {
      ++within_slo;
    }
    // Mismatch check: against the supplied baseline when given, otherwise
    // against the first served occurrence of the same query id.
    const std::vector<size_t>* reference = nullptr;
    if (baseline != nullptr) {
      reference = &(*baseline)[record.qid];
    } else if (!report.selections[record.qid].empty()) {
      reference = &report.selections[record.qid];
    }
    if (reference != nullptr && record.selection != *reference) {
      ++report.mismatches;
    }
    if (report.selections[record.qid].empty()) {
      report.selections[record.qid] = record.selection;
    }
  }
  report.wall_seconds = std::max(1e-9, (measure_end_ms - measure_start_ms) / 1e3);
  report.requests_per_sec = static_cast<double>(options.requests) / report.wall_seconds;
  report.served_per_sec = static_cast<double>(report.served) / report.wall_seconds;
  report.shed_fraction =
      static_cast<double>(report.shed) / static_cast<double>(options.requests);
  report.mean_queue_wait_ms = queue_wait_sum / static_cast<double>(options.requests);
  if (report.served > 0) {
    report.mean_ms /= static_cast<double>(report.served);
    report.mean_quality = quality_sum / static_cast<double>(report.served);
    report.slo_attainment =
        static_cast<double>(within_slo) / static_cast<double>(report.served);
    std::sort(served_latencies.begin(), served_latencies.end());
    report.p50_ms = PercentileOverSorted(served_latencies, 50.0);
    report.p99_ms = PercentileOverSorted(served_latencies, 99.0);
  }
  return report;
}

}  // namespace prism
