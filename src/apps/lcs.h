// LLM long-context selection (paper §6.3, Figs 14–15).
//
// An on-device LLM must answer over an ultra-long context. A reranker selects
// the top-K most relevant segments to fit the model's window; the No-Reranker
// baseline feeds the leading segments wholesale — a much larger prefill and a
// distracted (longer) decode. Selection precision is Precision@K of the
// chosen segments against the planted relevant ones.
#ifndef PRISM_SRC_APPS_LCS_H_
#define PRISM_SRC_APPS_LCS_H_

#include <vector>

#include "src/apps/sim_llm.h"
#include "src/data/dataset.h"
#include "src/runtime/runner.h"

namespace prism {

struct LcsOptions {
  size_t n_segments = 60;
  size_t relevant_segments = 6;
  size_t k = 8;  // Segments fed to the LLM with a reranker.
  // On-device quantised Qwen3-4B generator: slow prefill dominates when the
  // whole context is fed.
  SimLlmConfig llm{.prefill_tokens_per_sec = 400.0,
                   .decode_tokens_per_sec = 30.0,
                   .bytes_per_context_token = 4096,
                   .base_bytes = 16 * 1024 * 1024};
};

struct LcsResult {
  double rerank_ms = 0.0;
  double inference_ms = 0.0;
  double total_ms = 0.0;
  double precision = 0.0;
  size_t prompt_tokens = 0;
  std::vector<size_t> chosen;  // Segment indices fed to the LLM, best first.
};

class LcsApp {
 public:
  LcsApp(LcsOptions options, const ModelConfig& model, uint64_t seed);

  // `runner` == nullptr → No-Reranker baseline (leading segments, longer
  // distracted decode). Thread-safe: the context is rebuilt per call from
  // (seed, question_idx) and the generator is stateless, so concurrent
  // clients can share one app instance.
  LcsResult Answer(size_t question_idx, Runner* runner) const;

 private:
  LcsOptions options_;
  ModelConfig model_;
  uint64_t seed_;
  SimulatedLlm llm_;
};

}  // namespace prism

#endif  // PRISM_SRC_APPS_LCS_H_
