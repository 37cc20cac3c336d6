#include "src/model/layer.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/tensor/ops.h"

namespace prism {

namespace {

size_t WideCols(const ModelConfig& config) { return std::max(3 * config.hidden, config.ffn); }

// Rows of one attention tile: a block's own rows of one candidate (S), or the
// prefix's (P) when ForwardPrefix runs.
size_t TileRows(size_t seq_len, size_t prefix_len) {
  PRISM_CHECK_LT(prefix_len, seq_len);
  return std::max(seq_len - prefix_len, prefix_len);
}

}  // namespace

LayerScratch LayerScratch::Make(const ModelConfig& config, size_t max_rows, size_t seq_len,
                                size_t prefix_len, size_t fan_out, MemoryTracker* tracker) {
  PRISM_CHECK_GT(fan_out, 0u);
  LayerScratch s;
  const auto cat = MemCategory::kActivations;
  const size_t rows = std::max(max_rows, prefix_len);
  s.narrow = Tensor(rows, config.hidden, cat, tracker);
  s.wide = Tensor(rows, WideCols(config), cat, tracker);
  if (config.arch == ModelArch::kDecoderOnly) {
    s.gate_block = Tensor(rows, kFfnBlock, cat, tracker);
    s.up_block = Tensor(rows, kFfnBlock, cat, tracker);
  }
  s.scores = Tensor(fan_out * TileRows(seq_len, prefix_len), seq_len, cat, tracker);
  s.prefix_kv = Tensor(2 * prefix_len, config.hidden, cat, tracker);
  return s;
}

int64_t LayerScratch::BytesFor(const ModelConfig& config, size_t rows, size_t seq_len,
                               size_t prefix_len, size_t fan_out) {
  size_t row_floats = config.hidden + WideCols(config);
  if (config.arch == ModelArch::kDecoderOnly) {
    row_floats += 2 * kFfnBlock;
  }
  const size_t floats = std::max(rows, prefix_len) * row_floats +
                        fan_out * TileRows(seq_len, prefix_len) * seq_len +
                        2 * prefix_len * config.hidden;
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

// The keys and values every sequence of a ForwardRows call attends to before
// its own: the shared prefix's `rows` rows ([rows, d] each), or none.
struct PrefixKv {
  const float* k = nullptr;
  const float* v = nullptr;
  size_t rows = 0;
};

// One block's slice of the workspace (layer.h): `rows` rows, each buffer laid
// out [rows, cols] from the block's first row, plus its own attention tile.
struct BlockScratch {
  float* narrow;      // [rows, d]
  float* wide;        // [rows, max(3d, f)]
  float* kv;          // [2 · rows, d]: k then v (wide after q, or prefix_kv)
  float* gate_block;  // [rows, kFfnBlock] (decoder only)
  float* up_block;    // [rows, kFfnBlock] (decoder only)
  float* scores;      // [seg, prefix.rows + seg]
};

// The layer body over `rows` rows of `hidden`: whole sequences of `seg` rows
// each, every one continuing after `prefix` (row i of a sequence sits at
// position prefix.rows + i).
void ForwardRows(const ModelConfig& config, const AnyLayerView& w, size_t seg,
                 const PrefixKv& prefix, float* hidden, size_t rows, const BlockScratch& scratch) {
  const size_t sequences = rows / seg;
  const size_t d = config.hidden;
  const size_t f = config.ffn;
  const size_t heads = config.n_heads;
  const size_t dh = config.head_dim();
  const bool causal = config.arch == ModelArch::kDecoderOnly;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  // The lifetime table in layer.h: `narrow` and `wide` are reused step by step.
  float* const narrow = scratch.narrow;
  float* const q = scratch.wide;
  float* const k = scratch.kv;
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
  // Each attention row is full length: the prefix's P positions, then the
  // sequence's own seg.
  float* const attn_ctx = narrow;
  const size_t p = prefix.rows;
  const size_t len = p + seg;
  for (size_t s = 0; s < sequences; ++s) {
    const size_t base = s * seg;
    for (size_t h = 0; h < heads; ++h) {
      const size_t col0 = h * dh;
      const size_t head0 = base * d + col0;
      // scores[i][j] = q_i · k_j over the prefix's keys, then the own ones.
      if (p > 0) {
        MatMulTransBStrided(q + head0, d, seg, dh, prefix.k + col0, d, p, scores, len);
      }
      MatMulTransBStrided(q + head0, d, seg, dh, k + head0, d, seg, scores + p, len);
      // The 1/√dh scale applies after the dot product, as part of the fp32
      // spec, to the unmasked entries only: softmax zeroes the rest.
      for (size_t i = 0; i < seg; ++i) {
        SoftmaxRowInPlace({scores + i * len, len}, causal ? static_cast<ptrdiff_t>(p + i) : -1,
                          inv_sqrt_dh);
      }
      // ctx_i = Σ_j scores[i][j] · v_j on the GEMM tile, j over the prefix's
      // values then the own ones. The tile also adds the terms with
      // scores[i][j] = 0 (masked j > p + i, or an Exp that underflowed),
      // which a per-row loop could skip: each is ±0 while v is finite, and
      // adding ±0 to a sum that starts at +0 changes no bit of it.
      MatMulSplitB(scores, len, seg, len, p > 0 ? prefix.v + col0 : nullptr, p, v + head0, d, dh,
                   attn_ctx + head0, d);
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

// Block scratch over rows [r0, r1) of every buffer and attention tile `tile`.
BlockScratch BlockAt(const ModelConfig& config, LayerScratch* scratch, size_t r0, size_t r1,
                     size_t tile_floats, size_t tile) {
  const bool decoder = config.arch == ModelArch::kDecoderOnly;
  float* const wide = scratch->wide.data() + r0 * scratch->wide.cols();
  return BlockScratch{
      .narrow = scratch->narrow.data() + r0 * scratch->narrow.cols(),
      .wide = wide,
      .kv = wide + (r1 - r0) * config.hidden,
      .gate_block = decoder ? scratch->gate_block.data() + r0 * kFfnBlock : nullptr,
      .up_block = decoder ? scratch->up_block.data() + r0 * kFfnBlock : nullptr,
      .scores = scratch->scores.data() + tile * tile_floats,
  };
}

}  // namespace

void ForwardPrefix(const ModelConfig& config, const AnyLayerView& w, Tensor* prefix,
                   LayerScratch* scratch) {
  PRISM_CHECK(config.arch == ModelArch::kDecoderOnly);
  const size_t p = prefix->rows();
  PRISM_CHECK_GT(p, 0u);
  PRISM_CHECK_EQ(scratch->prefix_kv.rows(), 2 * p);
  PRISM_CHECK_LE(p, scratch->narrow.rows());
  BlockScratch block = BlockAt(config, scratch, 0, p, 0, 0);
  block.kv = scratch->prefix_kv.data();
  ForwardRows(config, w, p, PrefixKv{}, prefix->data(), p, block);
}

void LayerForward(const ModelConfig& config, const AnyLayerView& w, size_t seq_len,
                  size_t prefix_len, Tensor* hidden, LayerScratch* scratch, ThreadPool* pool) {
  const size_t rows = hidden->rows();
  const size_t tile_floats = TileRows(seq_len, prefix_len) * seq_len;
  const size_t seg = seq_len - prefix_len;
  PRISM_CHECK_EQ(rows % seg, 0u);
  PRISM_CHECK_LE(rows, scratch->narrow.rows());
  PRISM_CHECK_EQ(scratch->wide.cols(), WideCols(config));
  PRISM_CHECK_EQ(scratch->scores.cols(), seq_len);
  PRISM_CHECK_EQ(scratch->prefix_kv.rows(), 2 * prefix_len);
  const size_t tiles = scratch->scores.size() / tile_floats;
  PRISM_CHECK_GT(tiles, 0u);
  const size_t candidates = rows / seg;
  const size_t threads = pool != nullptr ? pool->num_threads() : 1;
  const size_t blocks = std::max<size_t>(1, std::min({candidates, threads, tiles}));
  const float* const kv = scratch->prefix_kv.data();
  const PrefixKv prefix{.k = kv, .v = kv + prefix_len * config.hidden, .rows = prefix_len};

  // Block b owns candidates [C·b/B, C·(b+1)/B) and the matching slice of
  // every scratch buffer, so blocks share nothing they write.
  const auto run_block = [&](size_t b) {
    const size_t r0 = candidates * b / blocks * seg;
    const size_t r1 = candidates * (b + 1) / blocks * seg;
    ForwardRows(config, w, seg, prefix, hidden->data() + r0 * config.hidden, r1 - r0,
                BlockAt(config, scratch, r0, r1, tile_floats, b));
  };
  if (blocks == 1) {
    run_block(0);
  } else {
    pool->ParallelFor(0, blocks, run_block);
  }
}

size_t PoolRow(const ModelConfig& config, size_t candidate, size_t cand_rows) {
  return config.arch == ModelArch::kDecoderOnly ? candidate * cand_rows + (cand_rows - 1)
                                                : candidate * cand_rows;
}

void ScoreChunk(const ModelConfig& config, const HeadWeights& head, const Tensor& hidden,
                size_t cand_rows, std::vector<float>* scores_out) {
  PRISM_CHECK_EQ(hidden.rows() % cand_rows, 0u);
  const size_t candidates = hidden.rows() / cand_rows;
  for (size_t c = 0; c < candidates; ++c) {
    const auto row = hidden.row(PoolRow(config, c, cand_rows));
    const float logit = Dot(row, {head.w.data(), head.w.size()}) + head.bias;
    scores_out->push_back(Sigmoid(logit));
  }
}

}  // namespace prism
