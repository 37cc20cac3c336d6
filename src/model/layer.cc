#include "src/model/layer.h"

#include <cmath>

#include "src/common/check.h"
#include "src/tensor/ops.h"

namespace prism {

LayerScratch LayerScratch::Make(const ModelConfig& config, size_t max_rows, size_t seq_len,
                                MemoryTracker* tracker) {
  LayerScratch s;
  const auto cat = MemCategory::kActivations;
  s.normed = Tensor(max_rows, config.hidden, cat, tracker);
  s.q = Tensor(max_rows, config.hidden, cat, tracker);
  s.k = Tensor(max_rows, config.hidden, cat, tracker);
  s.v = Tensor(max_rows, config.hidden, cat, tracker);
  s.attn_ctx = Tensor(max_rows, config.hidden, cat, tracker);
  s.attn_out = Tensor(max_rows, config.hidden, cat, tracker);
  s.ffn_up = Tensor(max_rows, config.ffn, cat, tracker);
  if (config.arch == ModelArch::kDecoderOnly) {
    s.ffn_gate = Tensor(max_rows, config.ffn, cat, tracker);
  }
  s.ffn_down = Tensor(max_rows, config.hidden, cat, tracker);
  s.scores = Tensor(seq_len, seq_len, cat, tracker);
  return s;
}

int64_t LayerScratch::BytesFor(const ModelConfig& config, size_t rows, size_t seq_len) {
  int64_t floats = 0;
  floats += static_cast<int64_t>(rows) * static_cast<int64_t>(config.hidden) * 7;
  floats += static_cast<int64_t>(rows) * static_cast<int64_t>(config.ffn) *
            (config.arch == ModelArch::kDecoderOnly ? 2 : 1);
  floats += static_cast<int64_t>(seq_len) * static_cast<int64_t>(seq_len);
  return floats * static_cast<int64_t>(sizeof(float));
}

namespace {

// Projects rows of `x` through one of the layer's weight matrices, letting
// the view dispatch on its storage precision (fused dequantising GEMM).
void Project(const Tensor& x, size_t rows, const WeightView& w, size_t out_dim, Tensor* out) {
  PRISM_CHECK_GE(out->rows(), rows);
  PRISM_CHECK_EQ(out->cols(), out_dim);
  PRISM_CHECK_EQ(w.cols, x.cols());
  PRISM_CHECK_EQ(w.rows, out_dim);
  w.MatMulTransB(x.data(), rows, out->data());
}

// normed[0, rows) ← the layer's pre-norm of hidden[0, rows): RMSNorm for
// decoder-only models, LayerNorm otherwise.
void PreNorm(const ModelConfig& config, const Tensor& hidden, size_t rows,
             std::span<const float> gain, std::span<const float> bias, Tensor* normed) {
  std::copy(hidden.data(), hidden.data() + rows * config.hidden, normed->data());
  if (config.arch == ModelArch::kDecoderOnly) {
    RmsNormInPlace(normed, rows, gain);
  } else {
    LayerNormInPlace(normed, rows, gain, bias);
  }
}

}  // namespace

void LayerForward(const ModelConfig& config, const AnyLayerView& w, size_t seq_len,
                  Tensor* hidden, LayerScratch* scratch) {
  const size_t rows = hidden->rows();
  PRISM_CHECK_EQ(rows % seq_len, 0u);
  PRISM_CHECK_LE(rows, scratch->normed.rows());
  const size_t candidates = rows / seq_len;
  const size_t d = config.hidden;
  const size_t heads = config.n_heads;
  const size_t dh = config.head_dim();
  const bool causal = config.arch == ModelArch::kDecoderOnly;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));

  // --- Attention sublayer (pre-norm residual) ---
  PreNorm(config, *hidden, rows, w.norm1_gain, w.norm1_bias, &scratch->normed);
  Project(scratch->normed, rows, w.wq, d, &scratch->q);
  Project(scratch->normed, rows, w.wk, d, &scratch->k);
  Project(scratch->normed, rows, w.wv, d, &scratch->v);

  for (size_t c = 0; c < candidates; ++c) {
    const size_t base = c * seq_len;
    for (size_t h = 0; h < heads; ++h) {
      const size_t col0 = h * dh;
      // scores[i][j] = q_i · k_j / sqrt(dh), within this candidate and head.
      // The scale applies after the dot product, as part of the fp32 spec.
      const size_t head0 = base * d + col0;
      MatMulTransBStrided(scratch->q.data() + head0, d, seq_len, dh, scratch->k.data() + head0, d,
                          seq_len, scratch->scores.data(), seq_len);
      // Only the causal prefix j ≤ i is scaled: softmax zeroes the rest.
      for (size_t i = 0; i < seq_len; ++i) {
        float* srow = scratch->scores.data() + i * seq_len;
        const size_t jmax = causal ? i + 1 : seq_len;
        for (size_t j = 0; j < jmax; ++j) {
          srow[j] *= inv_sqrt_dh;
        }
        SoftmaxRowInPlace({srow, seq_len}, causal ? static_cast<ptrdiff_t>(i) : -1);
      }
      // ctx_i = Σ_j scores[i][j] · v_j.
      for (size_t i = 0; i < seq_len; ++i) {
        float* ctx = scratch->attn_ctx.data() + (base + i) * d + col0;
        for (size_t x = 0; x < dh; ++x) {
          ctx[x] = 0.0f;
        }
        const float* srow = scratch->scores.data() + i * seq_len;
        const size_t jmax = causal ? i + 1 : seq_len;
        for (size_t j = 0; j < jmax; ++j) {
          const float sv = srow[j];
          if (sv == 0.0f) {
            continue;
          }
          const float* vj = scratch->v.data() + (base + j) * d + col0;
          for (size_t x = 0; x < dh; ++x) {
            ctx[x] += sv * vj[x];
          }
        }
      }
    }
  }

  Project(scratch->attn_ctx, rows, w.wo, d, &scratch->attn_out);
  // Residual add (only the active rows).
  {
    float* ph = hidden->data();
    const float* pa = scratch->attn_out.data();
    for (size_t i = 0; i < rows * d; ++i) {
      ph[i] += pa[i];
    }
  }

  // --- FFN sublayer (pre-norm residual) ---
  PreNorm(config, *hidden, rows, w.norm2_gain, w.norm2_bias, &scratch->normed);
  const size_t f = config.ffn;
  if (config.arch == ModelArch::kDecoderOnly) {
    // SwiGLU: down( silu(gate(x)) ⊙ up(x) ).
    Project(scratch->normed, rows, w.w_gate, f, &scratch->ffn_gate);
    Project(scratch->normed, rows, w.w_up, f, &scratch->ffn_up);
    SwiGluInPlace({scratch->ffn_gate.data(), rows * f}, {scratch->ffn_up.data(), rows * f});
    Project(scratch->ffn_gate, rows, w.w_down, d, &scratch->ffn_down);
  } else {
    // GELU MLP: down( gelu(up(x)) ).
    Project(scratch->normed, rows, w.w_up, f, &scratch->ffn_up);
    GeluInPlace({scratch->ffn_up.data(), rows * f});
    Project(scratch->ffn_up, rows, w.w_down, d, &scratch->ffn_down);
  }
  {
    float* ph = hidden->data();
    const float* pf = scratch->ffn_down.data();
    for (size_t i = 0; i < rows * d; ++i) {
      ph[i] += pf[i];
    }
  }
}

size_t PoolRow(const ModelConfig& config, size_t candidate, size_t seq_len) {
  return config.arch == ModelArch::kDecoderOnly ? candidate * seq_len + (seq_len - 1)
                                                : candidate * seq_len;
}

void ScoreChunk(const ModelConfig& config, const HeadWeights& head, const Tensor& hidden,
                size_t seq_len, std::vector<float>* scores_out) {
  PRISM_CHECK_EQ(hidden.rows() % seq_len, 0u);
  const size_t candidates = hidden.rows() / seq_len;
  for (size_t c = 0; c < candidates; ++c) {
    const auto row = hidden.row(PoolRow(config, c, seq_len));
    const float logit = Dot(row, {head.w.data(), head.w.size()}) + head.bias;
    scores_out->push_back(Sigmoid(logit));
  }
}

}  // namespace prism
