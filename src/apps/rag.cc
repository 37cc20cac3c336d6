#include "src/apps/rag.h"

#include "src/common/timer.h"
#include "src/data/metrics.h"
#include "src/retrieval/hybrid.h"

namespace prism {

namespace {

// IVF shape of the dense index: clusters trained, and clusters probed per
// query.
constexpr size_t kIvfLists = 16;
constexpr size_t kIvfProbes = 4;
// Tokens the generator decodes per answer.
constexpr size_t kAnswerTokens = 48;

}  // namespace

RagPipeline::RagPipeline(const SearchCorpus* corpus, RagOptions options, uint64_t seed)
    : corpus_(corpus),
      options_(options),
      encoder_(kBiEncoderDim, seed),
      dense_(kBiEncoderDim, kIvfLists, kIvfProbes, seed),
      llm_(options.llm) {
  for (const auto& doc : corpus_->docs()) {
    keyword_.Add(doc);
    dense_.Add(encoder_.Embed(doc));
  }
  dense_.Train();
}

RagResult RagPipeline::Query(size_t query_idx, Runner* runner) const {
  const WallTimer total_timer;
  RagResult result;
  const CorpusQuery& query = corpus_->queries()[query_idx];

  std::vector<RetrievalHit> sparse;
  {
    const WallTimer timer;
    sparse = keyword_.Search(query.tokens, kHitsPerSource);
    result.sparse_ms = timer.ElapsedMillis();
  }
  std::vector<RetrievalHit> dense;
  {
    const WallTimer timer;
    dense = dense_.Search(encoder_.Embed(query.tokens), kHitsPerSource);
    result.dense_ms = timer.ElapsedMillis();
  }
  const std::vector<size_t> candidates = FuseHits(sparse, dense, 2 * kHitsPerSource);

  const RerankRequest request = corpus_->MakeRequest(query_idx, candidates, options_.k);
  {
    const WallTimer timer;
    const RerankResult reranked = runner->Rerank(request);
    result.rerank_ms = timer.ElapsedMillis();
    for (size_t idx : reranked.topk) {
      result.context_docs.push_back(candidates[idx]);
    }
  }
  result.accuracy = PrecisionAtK(result.context_docs, query.relevant, options_.k);

  // Generation: prompt = query + the selected context documents.
  size_t prompt_tokens = query.tokens.size();
  for (size_t doc_id : result.context_docs) {
    prompt_tokens += corpus_->docs()[doc_id].size();
  }
  const SimLlmResult gen = llm_.Generate(prompt_tokens, kAnswerTokens);
  result.first_token_ms = gen.first_token_ms;
  result.total_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace prism
