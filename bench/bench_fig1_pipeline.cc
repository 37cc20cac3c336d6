// Figure 1: per-stage latency and peak memory of the semantic file search
// pipeline (keyword retrieve + embedding retrieve → top-K selection).
//
// The paper reports, on a Mac Mini with Qwen3-Reranker-0.6B selecting top-5
// of 20 candidates: retrieval ≈ 8 ms / 50 MiB, reranker 5754 ms / 1184 MiB —
// 96.3% of latency and 67.6% of memory. The reproduction shows the same
// dominance structure for the HF baseline, and what PRISM does to it.
//
// Flags: --device=apple|nvidia --queries=N --corpus=N --model=<zoo name>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/corpus.h"
#include "src/apps/file_search.h"

namespace prism {
namespace {

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const DeviceProfile device = DeviceByName(flags.GetString("device", "apple"));
  const ModelConfig model = ModelByName(flags.GetString("model", "Qwen3-Reranker-0.6B"));
  const size_t queries = static_cast<size_t>(flags.GetInt("queries", 3));
  const size_t background = static_cast<size_t>(flags.GetInt("corpus", 300));

  PrintHeader("Figure 1 — semantic file search: per-stage latency & memory (" + device.name +
              ", " + model.name + ", top-5 of 20)");

  const SearchCorpus corpus(DatasetByName("wikipedia"), model, queries, 4, background, 0xF16);
  const FileSearchApp app(&corpus);

  struct StageCost {
    double keyword_ms = 0.0;
    double embed_ms = 0.0;
    double rerank_ms = 0.0;
    double precision = 0.0;
    double retrieval_peak_mib = 0.0;
    double rerank_peak_mib = 0.0;
  };

  auto measure = [&](Runner* runner) {
    StageCost cost;
    for (size_t q = 0; q < queries; ++q) {
      const FileSearchResult result = app.Search(q, 5, runner);
      cost.keyword_ms += result.keyword_ms;
      cost.embed_ms += result.embed_ms;
      cost.rerank_ms += result.rerank_ms;
      cost.precision += result.precision;
    }
    cost.rerank_peak_mib = MiB(MemoryTracker::Global().PeakTotal()) * queries;
    const auto n = static_cast<double>(queries);
    cost.keyword_ms /= n;
    cost.embed_ms /= n;
    cost.rerank_ms /= n;
    cost.precision /= n;
    cost.rerank_peak_mib /= n;
    // Retrieval memory: the indexes (BM25 postings + dense vectors) — a rough
    // byte count of the dense index, the dominant part.
    cost.retrieval_peak_mib =
        MiB(static_cast<int64_t>(corpus.docs().size() * 48 * sizeof(float)));
    return cost;
  };

  for (const char* system : {"HF", "PRISM"}) {
    MemoryTracker::Global().Reset();  // Before runner construction: claims count.
    std::unique_ptr<Runner> runner;
    std::unique_ptr<PrismEngine> prism;
    if (std::string(system) == "HF") {
      runner = MakeHf(model, device, Precision::kFp32);
    } else {
      prism = MakePrism(model, device, kThresholdLow, Precision::kFp32);
    }
    Runner* r = runner != nullptr ? runner.get() : prism.get();
    const StageCost cost = measure(r);
    const double retrieval_ms = cost.keyword_ms + cost.embed_ms;
    const double total = retrieval_ms + cost.rerank_ms;
    std::printf("\n[%s reranker]\n", system);
    std::printf("  %-22s %10s %10s\n", "stage", "latency", "share");
    std::printf("  %-22s %8.1f ms %8.1f%%\n", "keyword retrieve", cost.keyword_ms,
                100.0 * cost.keyword_ms / total);
    std::printf("  %-22s %8.1f ms %8.1f%%\n", "embedding retrieve", cost.embed_ms,
                100.0 * cost.embed_ms / total);
    std::printf("  %-22s %8.1f ms %8.1f%%\n", "semantic selection", cost.rerank_ms,
                100.0 * cost.rerank_ms / total);
    std::printf("  %-22s %8.2f MiB (retrieval)  %8.2f MiB (selection peak)\n", "memory",
                cost.retrieval_peak_mib, cost.rerank_peak_mib);
    std::printf("  Precision@5 = %.3f\n", cost.precision);
  }
  return 0;
}

}  // namespace
}  // namespace prism

int main(int argc, char** argv) { return prism::Main(argc, argv); }
