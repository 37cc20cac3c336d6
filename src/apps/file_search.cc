#include "src/apps/file_search.h"

#include "src/common/timer.h"
#include "src/data/metrics.h"
#include "src/retrieval/hybrid.h"

namespace prism {

FileSearchApp::FileSearchApp(const SearchCorpus* corpus, uint64_t seed)
    : corpus_(corpus), encoder_(kBiEncoderDim, seed), dense_(kBiEncoderDim) {
  for (const auto& doc : corpus_->docs()) {
    keyword_.Add(doc);
    dense_.Add(encoder_.Embed(doc));
  }
}

FileSearchResult FileSearchApp::Search(size_t query_idx, size_t k, Runner* runner) const {
  FileSearchResult result;
  const CorpusQuery& query = corpus_->queries()[query_idx];

  std::vector<RetrievalHit> sparse;
  {
    const WallTimer timer;
    sparse = keyword_.Search(query.tokens, kHitsPerSource);
    result.keyword_ms = timer.ElapsedMillis();
  }
  std::vector<RetrievalHit> dense;
  {
    const WallTimer timer;
    dense = dense_.Search(encoder_.Embed(query.tokens), kHitsPerSource);
    result.embed_ms = timer.ElapsedMillis();
  }
  const std::vector<size_t> candidates = FuseHits(sparse, dense, 2 * kHitsPerSource);

  const RerankRequest request = corpus_->MakeRequest(query_idx, candidates, k);
  {
    const WallTimer timer;
    const RerankResult reranked = runner->Rerank(request);
    result.rerank_ms = timer.ElapsedMillis();
    for (size_t idx : reranked.topk) {
      result.top_docs.push_back(candidates[idx]);
    }
  }
  result.precision = PrecisionAtK(result.top_docs, query.relevant, k);
  return result;
}

}  // namespace prism
