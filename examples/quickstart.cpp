// Quickstart: rerank a handful of text documents against a query with PRISM.
//
// Demonstrates the minimal public API: pick a model from the zoo, generate
// (or reuse) its checkpoint, construct a PrismEngine, build a RerankRequest
// from strings via the tokenizer, and read back the top-K with timing and
// memory statistics.
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/core/engine.h"
#include "src/model/synthetic.h"
#include "src/model/tokenizer.h"

int main() {
  using namespace prism;

  // 1. Model + checkpoint. EnsureCheckpoint generates deterministic synthetic
  //    weights under /tmp on first use (see docs/ARCHITECTURE.md, "Synthetic
  //    weights and planted relevance", for why weights are synthetic) and
  //    reuses them afterwards.
  const ModelConfig model = Qwen3Reranker0_6B();
  const std::string checkpoint = EnsureCheckpoint(model, /*seed=*/42);

  // 2. Engine: all four PRISM techniques on, nvidia device profile.
  PrismOptions options;
  options.device = NvidiaProfile();
  options.dispersion_threshold = 0.15f;
  PrismEngine engine(model, checkpoint, options);

  // 3. Request: a query and candidate documents. The planted relevance value
  //    stands in for learned semantics (a real deployment's model computes
  //    this from text; our synthetic weights read it from the input — the
  //    ranking behaviour is identical either way).
  const SyntheticTokenizer tokenizer(model);
  const std::vector<std::pair<std::string, float>> corpus = {
      {"how to configure overlapped layer streaming for rerankers", 0.93f},
      {"recipe for sourdough bread with rye flour", 0.08f},
      {"reranker inference on edge devices with limited memory", 0.85f},
      {"monolithic forwarding keeps a global view of all candidates", 0.78f},
      {"tourist guide to edinburgh castle and the royal mile", 0.05f},
      {"progressive cluster pruning drops hopeless candidates early", 0.81f},
      {"notes on watering succulents in winter", 0.11f},
      {"embedding table caching exploits zipfian token skew", 0.72f},
  };
  RerankRequest request;
  request.query = tokenizer.Encode("efficient on-device semantic selection");
  for (const auto& [text, relevance] : corpus) {
    request.docs.push_back(tokenizer.Encode(text));
    request.planted_r.push_back(relevance);
  }
  request.k = 3;

  // 4. Rerank and inspect. (The global tracker has been counting since the
  //    engine claimed its caches at construction — never reset it while a
  //    runner is alive.)
  const RerankResult result = engine.Rerank(request);

  std::printf("Top-%zu of %zu candidates:\n", request.k, request.docs.size());
  for (size_t rank = 0; rank < result.topk.size(); ++rank) {
    const size_t id = result.topk[rank];
    std::printf("  #%zu  doc %zu  score %.3f  \"%s\"\n", rank + 1, id, result.scores[id],
                corpus[id].first.c_str());
  }
  std::printf("\nlatency        %.1f ms\n", result.stats.latency_ms);
  std::printf("layers run     %zu / %zu (early termination by pruning)\n",
              result.stats.layers_until_done, model.n_layers);
  std::printf("candidate-layers computed  %lld / %lld\n",
              static_cast<long long>(result.stats.candidate_layers),
              static_cast<long long>(request.docs.size() * model.n_layers));
  std::printf("bytes streamed %lld (two layers resident at a time)\n",
              static_cast<long long>(result.stats.bytes_streamed));
  std::printf("embed cache hit-rate %.2f\n", engine.embed_cache_stats()->HitRate());
  std::printf("peak tracked memory  %.2f MiB\n",
              static_cast<double>(MemoryTracker::Global().PeakTotal()) / (1024.0 * 1024.0));
  return 0;
}
