// Model configurations and the scaled model zoo.
//
// The paper evaluates five rerankers (Table 1). Real checkpoints are not
// available here, so the zoo mirrors each model's *architecture* (encoder vs.
// decoder, layer count, parameter ratios) at reduced hidden sizes, keeping every experiment laptop-runnable on one
// core while preserving the compute/IO/memory ratios PRISM's techniques
// depend on. See docs/ARCHITECTURE.md, "Synthetic weights and planted
// relevance", for the substitution rationale.
#ifndef PRISM_SRC_MODEL_CONFIG_H_
#define PRISM_SRC_MODEL_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace prism {

enum class ModelArch {
  kEncoderOnly,  // Bidirectional self-attention, LayerNorm, GELU FFN (BERT-style).
  kDecoderOnly,  // Causal self-attention, RMSNorm, SwiGLU FFN (Qwen/GPT-style).
};

// --- Planted-relevance model (docs/ARCHITECTURE.md, "Synthetic weights and
// planted relevance") ---
// Relevance enters on *document tokens* (each doc-token embedding gains
// (r−0.5)·kSignalGain·v) and is aggregated into the pooled position layer
// by layer through rank-1 components planted in Wv/Wo (v→v value routing),
// so provisional scores start compressed near 0.5 and progressively
// diverge — the paper's Fig-2 dynamics. Every model shares these values.
inline constexpr float kSignalGain = 1.2f;
// Small direct seed of the signal at the pooled position (fraction of the
// doc-token gain) so the very first layers carry weak coarse information.
inline constexpr float kPoolSeed = 0.3f;
// Strength of the planted v→v rank-1 component in Wv and Wo.
inline constexpr float kAmplify = 0.1f;
// Classifier scale: head weight = kHeadScale · v (v unit-norm).
inline constexpr float kHeadScale = 4.0f;
// Scale of the per-layer random residual perturbations. Larger values →
// noisier intermediate rankings → later convergence.
inline constexpr float kLayerNoise = 0.065f;

struct ModelConfig {
  std::string name;
  ModelArch arch = ModelArch::kDecoderOnly;
  size_t vocab_size = 16384;
  size_t hidden = 96;
  size_t ffn = 192;
  size_t n_heads = 4;
  size_t n_layers = 28;
  size_t max_seq = 64;
  // 4-bit quantisation group size (must divide hidden and ffn).
  size_t quant_group = 32;

  size_t head_dim() const { return hidden / n_heads; }

  // Float parameter counts.
  size_t EmbeddingParams() const { return vocab_size * hidden; }
  size_t LayerParams() const;
  size_t HeadParams() const { return hidden + 1; }  // classifier w + bias
  size_t TotalParams() const {
    return EmbeddingParams() + n_layers * LayerParams() + HeadParams();
  }

  // Byte sizes of on-disk blobs (fp32 path).
  size_t EmbeddingBlobBytes() const { return EmbeddingParams() * sizeof(float); }
  size_t LayerBlobBytes() const { return LayerParams() * sizeof(float); }
  size_t HeadBlobBytes() const { return HeadParams() * sizeof(float); }
};

// The five models of Table 1, scaled. Names match the paper.
ModelConfig Qwen3Reranker0_6B();
ModelConfig Qwen3Reranker4B();
ModelConfig Qwen3Reranker8B();
ModelConfig BgeRerankerV2MiniCpm();
ModelConfig BgeRerankerV2M3();

// All five, in the paper's Table-1 order.
std::vector<ModelConfig> ModelZoo();

// Zoo lookup by paper name (CHECK-fails if unknown).
ModelConfig ModelByName(const std::string& name);

// A deliberately tiny config for unit tests (fast, 4 layers).
ModelConfig TestModel(ModelArch arch = ModelArch::kDecoderOnly);

}  // namespace prism

#endif  // PRISM_SRC_MODEL_CONFIG_H_
