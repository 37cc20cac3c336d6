#include "src/apps/lcs.h"

#include <algorithm>
#include <cmath>

#include "src/common/timer.h"
#include "src/common/zipf.h"
#include "src/data/metrics.h"
#include "src/model/pair_encoder.h"

namespace prism {

namespace {

constexpr size_t kSegmentTokens = 26;
// Tokens decoded per answer. Without a reranker the model wades through
// irrelevant context and rambles longer.
constexpr size_t kAnswerTokens = 48;
constexpr size_t kDistractedAnswerTokens = 96;

}  // namespace

LcsApp::LcsApp(LcsOptions options, const ModelConfig& model, uint64_t seed)
    : options_(options), model_(model), seed_(seed), llm_(options.llm) {}

LcsResult LcsApp::Answer(size_t question_idx, Runner* runner) const {
  const WallTimer total_timer;
  LcsResult result;

  // Build the long context: n_segments, of which `relevant_segments` overlap
  // the question (LongBench-style needle segments scattered uniformly).
  const ZipfSampler zipf(model_.vocab_size - kFirstWordToken, 1.0);
  Rng rng(MixSeed(seed_, 0x1c5 + question_idx));
  auto draw = [&](size_t n) {
    std::vector<uint32_t> tokens;
    tokens.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      tokens.push_back(kFirstWordToken + static_cast<uint32_t>(zipf.Sample(rng)));
    }
    return tokens;
  };
  const std::vector<uint32_t> question = draw(9);
  std::vector<std::vector<uint32_t>> segments;
  std::vector<float> planted;
  std::vector<size_t> relevant;
  const size_t stride = options_.n_segments / options_.relevant_segments;
  for (size_t s = 0; s < options_.n_segments; ++s) {
    std::vector<uint32_t> segment = draw(kSegmentTokens);
    const bool is_relevant = s % stride == 0 && relevant.size() < options_.relevant_segments;
    float grade = 0.1f;
    if (is_relevant) {
      grade = 0.85f;
      relevant.push_back(s);
      const size_t overlap = segment.size() * 2 / 5;
      for (size_t i = 0; i < overlap; ++i) {
        segment[rng.NextBelow(segment.size())] = question[rng.NextBelow(question.size())];
      }
    }
    const double r = grade + 0.1 * rng.NextGaussian();
    planted.push_back(static_cast<float>(std::clamp(r, 0.0, 1.0)));
    segments.push_back(std::move(segment));
  }

  std::vector<size_t> chosen;
  size_t answer_tokens = kAnswerTokens;
  if (runner != nullptr) {
    RerankRequest request;
    request.query = question;
    request.docs = segments;
    request.planted_r = planted;
    request.k = options_.k;
    const WallTimer timer;
    const RerankResult reranked = runner->Rerank(request);
    result.rerank_ms = timer.ElapsedMillis();
    chosen = reranked.topk;
  } else {
    // No reranker: feed the leading segments wholesale; the model wades
    // through irrelevant context and rambles longer.
    for (size_t s = 0; s < options_.n_segments; ++s) {
      chosen.push_back(s);
    }
    answer_tokens = kDistractedAnswerTokens;
  }
  result.precision = PrecisionAtK(chosen, relevant, options_.k);

  size_t prompt_tokens = question.size();
  for (size_t s : chosen) {
    prompt_tokens += segments[s].size();
  }
  result.prompt_tokens = prompt_tokens;
  result.chosen = std::move(chosen);
  {
    const WallTimer timer;
    llm_.Generate(prompt_tokens, answer_tokens);
    result.inference_ms = timer.ElapsedMillis();
  }
  result.total_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace prism
