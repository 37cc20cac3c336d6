// Semantic file search — the Fig-1 motivating pipeline.
//
// Keyword retrieval (BM25) and embedding retrieval (bi-encoder + flat index)
// each surface candidates from the corpus; their fusion feeds the
// cross-encoder reranker, which selects the final top-K for the downstream
// consumer. Reports per-stage latency and selection precision.
#ifndef PRISM_SRC_APPS_FILE_SEARCH_H_
#define PRISM_SRC_APPS_FILE_SEARCH_H_

#include <memory>
#include <vector>

#include "src/apps/corpus.h"
#include "src/retrieval/bi_encoder.h"
#include "src/retrieval/bm25.h"
#include "src/retrieval/vector_index.h"

namespace prism {

struct FileSearchResult {
  std::vector<size_t> top_docs;  // Corpus doc ids, best first.
  double keyword_ms = 0.0;
  double embed_ms = 0.0;
  double rerank_ms = 0.0;
  double precision = 0.0;  // Precision@K against the query's planted docs.
};

class FileSearchApp {
 public:
  // Indexes the corpus (BM25 + dense). kHitsPerSource candidates come from
  // each retrieval arm (the paper's 10 + 10).
  explicit FileSearchApp(const SearchCorpus* corpus, uint64_t seed = 0xF5);

  // Runs one query end to end; `runner` performs the semantic selection.
  // Thread-safe: both indexes and the encoder are immutable after
  // construction, so concurrent clients can share one app instance against
  // one (thread-safe) runner.
  FileSearchResult Search(size_t query_idx, size_t k, Runner* runner) const;

  const SearchCorpus& corpus() const { return *corpus_; }

 private:
  const SearchCorpus* corpus_;
  BiEncoder encoder_;
  Bm25Index keyword_;
  FlatIndex dense_;
};

}  // namespace prism

#endif  // PRISM_SRC_APPS_FILE_SEARCH_H_
