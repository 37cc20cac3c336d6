// Cross-encoder input construction with planted relevance.
//
// A (query, candidate) pair becomes the token sequence
//   [BOS] query... [SEP] doc... [EOS]
// padded/cycled to exactly `seq_len` tokens. After embedding lookup and
// sinusoidal position encoding, the pooled position (EOS for decoder models,
// BOS/CLS for encoder models) receives the planted relevance component
// (r − 0.5) · kSignalGain · v, where v is the classifier direction. This is
// the point where the pair "meets" — the joint-encoding step a real
// cross-encoder performs with learned weights (see docs/ARCHITECTURE.md,
// "Synthetic weights and planted relevance", for why this substitution
// preserves the behaviour PRISM exploits).
#ifndef PRISM_SRC_MODEL_PAIR_ENCODER_H_
#define PRISM_SRC_MODEL_PAIR_ENCODER_H_

#include <cstdint>
#include <vector>

#include "src/model/config.h"
#include "src/model/embedding.h"
#include "src/model/weights.h"
#include "src/tensor/tensor.h"

namespace prism {

// Reserved token ids; dataset generators must emit tokens >= kFirstWordToken.
inline constexpr uint32_t kPadToken = 0;
inline constexpr uint32_t kBosToken = 1;
inline constexpr uint32_t kSepToken = 2;
inline constexpr uint32_t kEosToken = 3;
inline constexpr uint32_t kFirstWordToken = 16;

struct PairInput {
  std::vector<uint32_t> tokens;  // Exactly seq_len entries.
  float relevance = 0.5f;        // Planted r ∈ [0, 1].
};

// Builds the fixed-length token sequence for one pair. Query is truncated to
// at most seq_len/3 tokens; the document fills the rest (cycled if short).
PairInput BuildPairInput(const ModelConfig& config, const std::vector<uint32_t>& query,
                         const std::vector<uint32_t>& doc, float relevance, size_t seq_len);

// The sinusoidal position encoding of every position below config.max_seq,
// [max_seq, hidden]: row t holds 0.05 · sin(t · 10000^(−i/d)) at even
// column i and 0.05 · cos of the same angle at i + 1, a small scale relative
// to the unit-norm token embeddings. Built once per engine or runner and
// tracked under kEmbedding, so no embed recomputes it.
Tensor MakePositionTable(const ModelConfig& config, MemoryTracker* tracker);

// Embeds `pair` into rows [candidate·seq_len, (candidate+1)·seq_len) of
// `hidden`: embedding lookup through `source`, plus row t of `positions`
// (MakePositionTable), plus the planted signal at the pooled position
// (direction = head.w).
void EmbedPairInto(const ModelConfig& config, EmbeddingSource* source, const HeadWeights& head,
                   const Tensor& positions, const PairInput& pair, size_t candidate,
                   size_t seq_len, Tensor* hidden);

// Chooses the common sequence length for a request: the longest pair's
// natural length (1 + |q| + 1 + |d| + 1), clamped to [8, config.max_seq].
size_t ChooseSeqLen(const ModelConfig& config, const std::vector<uint32_t>& query,
                    const std::vector<std::vector<uint32_t>>& docs);

}  // namespace prism

#endif  // PRISM_SRC_MODEL_PAIR_ENCODER_H_
