// Semantic file search — the paper's Fig-1 motivating scenario end to end:
// keyword retrieval + embedding retrieval each surface 10 candidates from a
// corpus, and the cross-encoder reranker selects the final top-5. Runs the
// pipeline with the HF baseline and with PRISM and prints the per-stage
// comparison.
#include <cstdio>

#include "src/apps/corpus.h"
#include "src/apps/file_search.h"
#include "src/core/engine.h"
#include "src/model/synthetic.h"
#include "src/runtime/hf_runner.h"

int main() {
  using namespace prism;

  const ModelConfig model = Qwen3Reranker0_6B();
  const DeviceProfile device = AppleProfile();  // The paper's Mac Mini setting.
  const std::string checkpoint = EnsureCheckpoint(model, 42);

  // A corpus of 200 background "files" plus 4 relevant files per query.
  const SearchCorpus corpus(DatasetByName("wikipedia"), model, /*n_queries=*/2,
                            /*relevant_per_query=*/4, /*background_docs=*/200, 0xE7);
  const FileSearchApp app(&corpus);

  std::printf("Semantic file search on '%s' (%zu files)\n\n", device.name.c_str(),
              corpus.docs().size());

  {
    HfRunnerOptions options;
    options.device = device;
    HfRunner hf(model, checkpoint, options);
    const FileSearchResult result = app.Search(0, 5, &hf);
    std::printf("[HF baseline]   keyword %5.1f ms | embed %5.1f ms | rerank %8.1f ms | P@5 %.2f\n",
                result.keyword_ms, result.embed_ms, result.rerank_ms, result.precision);
    const double total = result.keyword_ms + result.embed_ms + result.rerank_ms;
    std::printf("                reranker share of pipeline latency: %.1f%%\n",
                100.0 * result.rerank_ms / total);
  }
  {
    PrismOptions options;
    options.device = device;
    options.dispersion_threshold = 0.15f;
    PrismEngine prism(model, checkpoint, options);
    const FileSearchResult result = app.Search(0, 5, &prism);
    std::printf("[PRISM]         keyword %5.1f ms | embed %5.1f ms | rerank %8.1f ms | P@5 %.2f\n",
                result.keyword_ms, result.embed_ms, result.rerank_ms, result.precision);
    std::printf("\nTop files: ");
    for (size_t doc : result.top_docs) {
      std::printf("%zu ", doc);
    }
    std::printf("\n");
  }
  return 0;
}
