// Shared document corpus with per-query ground truth, used by the pipeline
// applications (semantic file search, RAG).
//
// Unlike SyntheticDataset (which emits a per-query candidate pool), a corpus
// is a fixed document collection that retrieval stages index once. Each query
// has a handful of planted relevant documents (high lexical overlap) mixed
// into background documents; the planted relevance for an arbitrary
// (query, doc) pair is derived deterministically from the stored grade plus
// lexical overlap plus seeded noise, so the reranker can score any candidate
// the retrieval stage surfaces.
#ifndef PRISM_SRC_APPS_CORPUS_H_
#define PRISM_SRC_APPS_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/data/dataset.h"
#include "src/runtime/runner.h"

namespace prism {

// Hybrid retrieval over a corpus (file search, RAG): each arm — BM25 and a
// dense bi-encoder index — surfaces kHitsPerSource candidates (the paper's
// 10 + 10), and the bi-encoder embeds into kBiEncoderDim dimensions.
inline constexpr size_t kHitsPerSource = 10;
inline constexpr size_t kBiEncoderDim = 48;

struct CorpusQuery {
  std::vector<uint32_t> tokens;
  std::vector<size_t> relevant;  // Doc ids planted for this query.
};

class SearchCorpus {
 public:
  SearchCorpus(DatasetProfile profile, const ModelConfig& model, size_t n_queries,
               size_t relevant_per_query, size_t background_docs, uint64_t seed);

  const std::vector<std::vector<uint32_t>>& docs() const { return docs_; }
  const std::vector<CorpusQuery>& queries() const { return queries_; }

  // Ground-truth grade of (query, doc): > 0 only for planted pairs.
  float Grade(size_t query_idx, size_t doc_id) const;

  // Planted relevance scalar for the cross-encoder (grade + overlap + noise),
  // deterministic in (seed, query, doc).
  float PlantedRelevance(size_t query_idx, size_t doc_id) const;

  // Assembles a rerank request for the given candidate doc ids.
  RerankRequest MakeRequest(size_t query_idx, const std::vector<size_t>& candidates,
                            size_t k) const;

 private:
  DatasetProfile profile_;
  uint64_t seed_;
  std::vector<std::vector<uint32_t>> docs_;
  std::vector<CorpusQuery> queries_;
  // (query << 32 | doc) → grade for planted pairs.
  std::unordered_map<uint64_t, float> grades_;
};

}  // namespace prism

#endif  // PRISM_SRC_APPS_CORPUS_H_
