// Transformer layer forward pass over a chunk of candidate sequences.
//
// A chunk holds C candidate sequences of identical length T as one tensor
// [C·T, hidden]. Projections and FFN run as one GEMM over all C·T rows (this
// is where the monolithic batch earns its compute efficiency); attention
// mixes tokens only *within* each candidate — the cross-encoder processes
// each (query, doc) pair jointly but candidates independently.
//
// That independence is also the layer's parallel axis: every step is local
// to a row except attention, which is local to a candidate. Given a thread
// pool, LayerForward splits the chunk into contiguous candidate blocks and
// runs the whole layer body on each block at once. Each GEMM output is a
// strict-k sum that does not depend on which rows share the call (gemm.h),
// so the pooled result is bit-identical to the serial one.
#ifndef PRISM_SRC_MODEL_LAYER_H_
#define PRISM_SRC_MODEL_LAYER_H_

#include "src/model/config.h"
#include "src/model/weights.h"
#include "src/tensor/tensor.h"

namespace prism {

class ThreadPool;

// Output columns per FFN block of the decoder's SwiGLU: one GEMM panel strip
// (gemm::kNr), so each gate and up weight panel is still decoded exactly once.
inline constexpr size_t kFfnBlock = 16;

// Workspace sized for up to `max_rows` (= chunk_candidates · seq_len) rows.
// These tensors are the "intermediate tensors" whose footprint chunked
// execution bounds (§4.3); they register under MemCategory::kActivations.
//
// Buffers are shared by lifetime. What each holds through one LayerForward:
//
//   step                      narrow [rows, d]   wide [rows, max(3d, f)]
//   pre-norm 1                normed x           -
//   q, k, v projections       normed x (read)    q | k | v, one plane each
//   attention                 context            q, k, v (read)
//   output projection         context (read)     attention out (q's plane)
//   residual add, pre-norm 2  normed x           attention out (read)
//   FFN gate/up + activation  normed x (read)    activation [rows, f]
//   FFN down projection       down out           activation (read)
//   residual add              down out (read)    -
//
// The decoder's gate and up run in kFfnBlock-column blocks: gate_block and
// up_block hold one [rows, kFfnBlock] block, SwiGLU combines them, and the
// result lands in its columns of the activation, so the full-width gate and
// up never exist. The encoder's GELU runs on the activation in place.
//
// A pooled LayerForward gives candidate block b, rows [r0, r1), its own
// slice of every buffer, laid out as [r1 − r0, cols] from r0 · cols: the
// table above then holds per block, with "rows" read as the block's rows.
// (The block's q | k | v planes are its own: the activation overlays them,
// so indexing the full-rows planes would let one block overwrite another
// block's k and v.) Each block also needs its own [seq, seq] attention tile;
// `fan_out` is the number of tiles, and so the most blocks one call runs.
struct LayerScratch {
  Tensor narrow;      // [rows, hidden]
  Tensor wide;        // [rows, max(3·hidden, ffn)]
  Tensor gate_block;  // [rows, kFfnBlock] (decoder only; empty otherwise)
  Tensor up_block;    // [rows, kFfnBlock] (decoder only; empty otherwise)
  Tensor scores;      // [fan_out · seq, seq]: one attention tile per block

  static LayerScratch Make(const ModelConfig& config, size_t max_rows, size_t seq_len,
                           size_t fan_out, MemoryTracker* tracker = &MemoryTracker::Global());

  // Total tracked bytes (for chunk-size planning).
  static int64_t BytesFor(const ModelConfig& config, size_t rows, size_t seq_len,
                          size_t fan_out);
};

// Applies one transformer layer in place to `hidden` ([C·T, hidden], C whole
// candidates of length `seq_len`). The scratch must have been created with
// max_rows >= hidden->rows() and the same seq_len.
//
// With a `pool`, the C candidates split into min(C, pool threads, scratch
// tiles) contiguous blocks that run as one ParallelFor; a null pool (the
// serial path) runs one block on the calling thread. Never call it with a
// pool from inside one of that pool's tasks: the nested ParallelFor can
// wait on workers that are all waiting in turn.
void LayerForward(const ModelConfig& config, const AnyLayerView& weights, size_t seq_len,
                  Tensor* hidden, LayerScratch* scratch, ThreadPool* pool);

// Pooled-position row index of candidate `c` within a chunk tensor: last
// token for decoder-only models, first token (CLS) for encoder-only.
size_t PoolRow(const ModelConfig& config, size_t candidate, size_t seq_len);

// Classifier head: sigmoid(w · h_pool + bias) for each of the C candidates in
// `hidden`. Appends C scores to `scores_out`.
void ScoreChunk(const ModelConfig& config, const HeadWeights& head, const Tensor& hidden,
                size_t seq_len, std::vector<float>* scores_out);

}  // namespace prism

#endif  // PRISM_SRC_MODEL_LAYER_H_
