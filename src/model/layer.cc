#include "src/model/layer.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/tensor/ops.h"

namespace prism {

namespace {

size_t WideCols(const ModelConfig& config) { return std::max(3 * config.hidden, config.ffn); }

}  // namespace

LayerScratch LayerScratch::Make(const ModelConfig& config, size_t max_rows, size_t seq_len,
                                size_t fan_out, MemoryTracker* tracker) {
  PRISM_CHECK_GT(fan_out, 0u);
  LayerScratch s;
  const auto cat = MemCategory::kActivations;
  s.narrow = Tensor(max_rows, config.hidden, cat, tracker);
  s.wide = Tensor(max_rows, WideCols(config), cat, tracker);
  if (config.arch == ModelArch::kDecoderOnly) {
    s.gate_block = Tensor(max_rows, kFfnBlock, cat, tracker);
    s.up_block = Tensor(max_rows, kFfnBlock, cat, tracker);
  }
  s.scores = Tensor(fan_out * seq_len, seq_len, cat, tracker);
  return s;
}

int64_t LayerScratch::BytesFor(const ModelConfig& config, size_t rows, size_t seq_len,
                               size_t fan_out) {
  size_t row_floats = config.hidden + WideCols(config);
  if (config.arch == ModelArch::kDecoderOnly) {
    row_floats += 2 * kFfnBlock;
  }
  const size_t floats = rows * row_floats + fan_out * seq_len * seq_len;
  return static_cast<int64_t>(floats * sizeof(float));
}

namespace {

// out[rows, w.rows] ← x[rows, in_dim] · Wᵀ, letting the view dispatch on its
// storage precision (fused dequantising GEMM).
void Project(const float* x, size_t rows, size_t in_dim, const WeightView& w, float* out) {
  PRISM_CHECK_EQ(w.cols, in_dim);
  w.MatMulTransB(x, rows, out);
}

// normed[0, rows) ← the layer's pre-norm of hidden[0, rows): RMSNorm for
// decoder-only models, LayerNorm otherwise.
void PreNorm(const ModelConfig& config, const float* hidden, size_t rows,
             std::span<const float> gain, std::span<const float> bias, float* normed) {
  std::copy_n(hidden, rows * config.hidden, normed);
  if (config.arch == ModelArch::kDecoderOnly) {
    RmsNormInPlace(normed, rows, gain);
  } else {
    LayerNormInPlace(normed, rows, gain, bias);
  }
}

// hidden[0, n) += x[0, n): a residual add over the active rows.
void AddResidual(float* hidden, const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    hidden[i] += x[i];
  }
}

// One candidate block's slice of the workspace (layer.h): `rows` rows, each
// buffer laid out [rows, cols] from the block's first row, plus its own
// [seq, seq] attention tile.
struct BlockScratch {
  float* narrow;      // [rows, d]
  float* wide;        // [rows, max(3d, f)]
  float* gate_block;  // [rows, kFfnBlock] (decoder only)
  float* up_block;    // [rows, kFfnBlock] (decoder only)
  float* scores;      // [seq, seq]
};

// The layer body over `rows` = whole candidates' rows of `hidden`.
void ForwardRows(const ModelConfig& config, const AnyLayerView& w, size_t seq_len, float* hidden,
                 size_t rows, const BlockScratch& scratch) {
  const size_t candidates = rows / seq_len;
  const size_t d = config.hidden;
  const size_t f = config.ffn;
  const size_t heads = config.n_heads;
  const size_t dh = config.head_dim();
  const bool causal = config.arch == ModelArch::kDecoderOnly;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  // The lifetime table in layer.h: `narrow` and `wide` are reused step by step.
  float* const narrow = scratch.narrow;
  float* const q = scratch.wide;
  float* const k = q + rows * d;
  float* const v = k + rows * d;
  float* const attn_out = q;
  float* const act = scratch.wide;
  float* const scores = scratch.scores;

  // --- Attention sublayer (pre-norm residual) ---
  PreNorm(config, hidden, rows, w.norm1_gain, w.norm1_bias, narrow);
  Project(narrow, rows, d, w.wq, q);
  Project(narrow, rows, d, w.wk, k);
  Project(narrow, rows, d, w.wv, v);

  // The context overwrites the pre-norm, which q, k and v no longer need.
  float* const attn_ctx = narrow;
  for (size_t c = 0; c < candidates; ++c) {
    const size_t base = c * seq_len;
    for (size_t h = 0; h < heads; ++h) {
      const size_t col0 = h * dh;
      // scores[i][j] = q_i · k_j / sqrt(dh), within this candidate and head.
      // The scale applies after the dot product, as part of the fp32 spec.
      const size_t head0 = base * d + col0;
      MatMulTransBStrided(q + head0, d, seq_len, dh, k + head0, d, seq_len, scores, seq_len);
      // Only the causal prefix j ≤ i is scaled: softmax zeroes the rest.
      for (size_t i = 0; i < seq_len; ++i) {
        float* srow = scores + i * seq_len;
        const size_t jmax = causal ? i + 1 : seq_len;
        for (size_t j = 0; j < jmax; ++j) {
          srow[j] *= inv_sqrt_dh;
        }
        SoftmaxRowInPlace({srow, seq_len}, causal ? static_cast<ptrdiff_t>(i) : -1);
      }
      // ctx_i = Σ_j scores[i][j] · v_j.
      for (size_t i = 0; i < seq_len; ++i) {
        float* ctx = attn_ctx + (base + i) * d + col0;
        for (size_t x = 0; x < dh; ++x) {
          ctx[x] = 0.0f;
        }
        const float* srow = scores + i * seq_len;
        const size_t jmax = causal ? i + 1 : seq_len;
        for (size_t j = 0; j < jmax; ++j) {
          const float sv = srow[j];
          if (sv == 0.0f) {
            continue;
          }
          const float* vj = v + (base + j) * d + col0;
          for (size_t x = 0; x < dh; ++x) {
            ctx[x] += sv * vj[x];
          }
        }
      }
    }
  }

  Project(attn_ctx, rows, d, w.wo, attn_out);
  AddResidual(hidden, attn_out, rows * d);

  // --- FFN sublayer (pre-norm residual) ---
  PreNorm(config, hidden, rows, w.norm2_gain, w.norm2_bias, narrow);
  if (config.arch == ModelArch::kDecoderOnly) {
    // SwiGLU: act = silu(gate(x)) ⊙ up(x), one kFfnBlock-column block at a
    // time; each output is the same strict-k sum as in the full-width GEMM.
    float* const gate = scratch.gate_block;
    float* const up = scratch.up_block;
    for (size_t j0 = 0; j0 < f; j0 += kFfnBlock) {
      const size_t nr = std::min(kFfnBlock, f - j0);
      Project(narrow, rows, d, w.w_gate.RowSlice(j0, nr), gate);
      Project(narrow, rows, d, w.w_up.RowSlice(j0, nr), up);
      SwiGluInPlace({gate, rows * nr}, {up, rows * nr});
      for (size_t r = 0; r < rows; ++r) {
        std::copy_n(gate + r * nr, nr, act + r * f + j0);
      }
    }
  } else {
    // GELU MLP: act = gelu(up(x)).
    Project(narrow, rows, d, w.w_up, act);
    GeluInPlace({act, rows * f});
  }
  // The down projection overwrites the pre-norm, which the activation no
  // longer needs.
  float* const ffn_down = narrow;
  Project(act, rows, f, w.w_down, ffn_down);
  AddResidual(hidden, ffn_down, rows * d);
}

}  // namespace

void LayerForward(const ModelConfig& config, const AnyLayerView& w, size_t seq_len,
                  Tensor* hidden, LayerScratch* scratch, ThreadPool* pool) {
  const size_t rows = hidden->rows();
  PRISM_CHECK_EQ(rows % seq_len, 0u);
  PRISM_CHECK_LE(rows, scratch->narrow.rows());
  PRISM_CHECK_EQ(scratch->wide.cols(), WideCols(config));
  PRISM_CHECK_EQ(scratch->scores.cols(), seq_len);
  const size_t tiles = scratch->scores.rows() / seq_len;
  PRISM_CHECK_GT(tiles, 0u);
  const size_t candidates = rows / seq_len;
  const size_t threads = pool != nullptr ? pool->num_threads() : 1;
  const size_t blocks = std::max<size_t>(1, std::min({candidates, threads, tiles}));

  // Block b owns candidates [C·b/B, C·(b+1)/B) and the matching slice of
  // every scratch buffer, so blocks share nothing they write.
  const auto run_block = [&](size_t b) {
    const size_t r0 = candidates * b / blocks * seq_len;
    const size_t r1 = candidates * (b + 1) / blocks * seq_len;
    const bool decoder = config.arch == ModelArch::kDecoderOnly;
    const BlockScratch block{
        .narrow = scratch->narrow.data() + r0 * scratch->narrow.cols(),
        .wide = scratch->wide.data() + r0 * scratch->wide.cols(),
        .gate_block = decoder ? scratch->gate_block.data() + r0 * kFfnBlock : nullptr,
        .up_block = decoder ? scratch->up_block.data() + r0 * kFfnBlock : nullptr,
        .scores = scratch->scores.data() + b * seq_len * seq_len,
    };
    ForwardRows(config, w, seq_len, hidden->data() + r0 * config.hidden, r1 - r0, block);
  };
  if (blocks == 1) {
    run_block(0);
  } else {
    pool->ParallelFor(0, blocks, run_block);
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
