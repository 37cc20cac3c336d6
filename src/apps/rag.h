// RAG personal-assistant pipeline (paper §6.3, Fig 11).
//
// Offline, user data is embedded into a vector index (IVF, the Milvus/DiskANN
// stand-in) and a BM25 index. Online, a hybrid search surfaces 10 + 10
// candidates, the reranker consolidates the top-10, and a simulated LLM
// generates the answer. Reports per-stage latency, selection accuracy, and —
// through the memory tracker — the footprint-over-time curves of Fig 11(b,c).
#ifndef PRISM_SRC_APPS_RAG_H_
#define PRISM_SRC_APPS_RAG_H_

#include <memory>
#include <vector>

#include "src/apps/corpus.h"
#include "src/apps/sim_llm.h"
#include "src/retrieval/bi_encoder.h"
#include "src/retrieval/bm25.h"
#include "src/retrieval/vector_index.h"

namespace prism {

struct RagResult {
  double sparse_ms = 0.0;
  double dense_ms = 0.0;
  double rerank_ms = 0.0;
  double first_token_ms = 0.0;
  double total_ms = 0.0;
  double accuracy = 0.0;  // Precision@K of the reranked context set.
  std::vector<size_t> context_docs;
};

struct RagOptions {
  size_t k = 10;
  SimLlmConfig llm;  // Server-class generator (Qwen3-32B on A800s).
};

class RagPipeline {
 public:
  RagPipeline(const SearchCorpus* corpus, RagOptions options, uint64_t seed = 0x4A6);

  // Thread-safe: indexes and encoder are immutable after construction and
  // the generator is stateless, so N client threads can share one pipeline
  // against one (thread-safe) runner, e.g. a RerankService.
  RagResult Query(size_t query_idx, Runner* runner) const;

 private:
  const SearchCorpus* corpus_;
  RagOptions options_;
  BiEncoder encoder_;
  Bm25Index keyword_;
  IvfIndex dense_;
  SimulatedLlm llm_;
};

}  // namespace prism

#endif  // PRISM_SRC_APPS_RAG_H_
