// Transformer layer forward pass over a chunk of candidate sequences.
//
// A chunk holds C candidate sequences of identical length T as one tensor
// [C·T, hidden]. Projections and FFN run as one GEMM over all C·T rows (this
// is where the monolithic batch earns its compute efficiency); attention
// mixes tokens only *within* each candidate — the cross-encoder processes
// each (query, doc) pair jointly but candidates independently.
//
// Shared query prefix. On a causal (decoder-only) model every candidate of a
// request starts with the same P tokens, [BOS] query [SEP] (SharedPrefixLen,
// pair_encoder.h), and a row attends only to the rows before it, so those P
// rows hold the same hidden states in every candidate at every layer. A
// request therefore forwards them once per layer: ForwardPrefix runs the P
// rows as a sequence of their own and keeps their keys and values in the
// scratch, and LayerForward then runs a chunk of C candidates' S = T − P own
// rows (their suffixes) as [C·S, hidden]. Suffix row i sits at position P + i:
// its attention row scores the prefix's keys, then its candidate's own, one
// full-length row of T, and its context sums the prefix's values, then its
// own. Every product is the same strict-k sum either way (gemm.h), so the
// scores are bit-identical to forwarding all T rows per candidate. Encoder
// models take P = 0, which is LayerForward over whole sequences in the same
// code.
//
// Candidate independence is also the layer's parallel axis: every step is
// local to a row except attention, which is local to a candidate. Given a
// thread pool, LayerForward splits the chunk into contiguous candidate blocks
// and runs the whole layer body on each block at once. Each GEMM output is a
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

// Workspace sized for up to `max_rows` (= chunk_candidates · S) suffix rows
// of `seq_len`-token candidates that share a `prefix_len`-row prefix (S =
// seq_len − prefix_len; prefix_len 0 for encoders and the unshared HF
// baseline). These tensors are the "intermediate tensors" whose footprint
// chunked execution bounds (§4.3); they register under
// MemCategory::kActivations.
//
// Buffers are shared by lifetime. What each holds through one LayerForward:
//
//   step                      narrow [rows, d]   wide [rows, max(3d, f)]    prefix_kv [2P, d]
//   pre-norm 1                normed x           -                          -
//   q, k, v projections       normed x (read)    q | k | v, one plane each  -
//   attention                 context            q, k, v (read)             k | v (read)
//   output projection         context (read)     attention out (q's plane)  -
//   residual add, pre-norm 2  normed x           attention out (read)       -
//   FFN gate/up + activation  normed x (read)    activation [rows, f]       -
//   FFN down projection       down out           activation (read)          -
//   residual add              down out (read)    -                          -
//
// The decoder's gate and up run in kFfnBlock-column blocks: gate_block and
// up_block hold one [rows, kFfnBlock] block, SwiGLU combines them, and the
// result lands in its columns of the activation, so the full-width gate and
// up never exist. The encoder's GELU runs on the activation in place.
//
// ForwardPrefix runs the same table over the P prefix rows, except that its
// q plane alone sits in wide: it projects k | v into prefix_kv, which
// outlives the call (every LayerForward of the layer step reads it, and the
// next layer's ForwardPrefix overwrites it), and its attention reads no
// other prefix. narrow and wide therefore hold max(max_rows, P) rows.
//
// A pooled LayerForward gives candidate block b, rows [r0, r1), its own
// slice of every buffer, laid out as [r1 − r0, cols] from r0 · cols: the
// table above then holds per block, with "rows" read as the block's rows.
// (The block's q | k | v planes are its own: the activation overlays them,
// so indexing the full-rows planes would let one block overwrite another
// block's k and v.) Each block also needs its own attention tile, [S, T] (a
// row per own row, a column per position; ForwardPrefix uses [P, P] of tile
// 0); `fan_out` is the number of tiles, and so the most blocks one call runs.
// Blocks only read prefix_kv.
struct LayerScratch {
  Tensor narrow;      // [max(rows, P), hidden]
  Tensor wide;        // [max(rows, P), max(3·hidden, ffn)]
  Tensor gate_block;  // [max(rows, P), kFfnBlock] (decoder only; empty otherwise)
  Tensor up_block;    // [max(rows, P), kFfnBlock] (decoder only; empty otherwise)
  Tensor scores;      // [fan_out · max(S, P), T]: one attention tile per block
  Tensor prefix_kv;   // [2·P, hidden]: the prefix's k rows, then its v rows

  static LayerScratch Make(const ModelConfig& config, size_t max_rows, size_t seq_len,
                           size_t prefix_len, size_t fan_out,
                           MemoryTracker* tracker = &MemoryTracker::Global());

  // Total tracked bytes (for chunk-size planning).
  static int64_t BytesFor(const ModelConfig& config, size_t rows, size_t seq_len,
                          size_t prefix_len, size_t fan_out);
};

// Applies one transformer layer in place to a causal model's P shared prefix
// rows, `prefix` ([P, hidden]), and leaves their keys and values in
// scratch->prefix_kv for the LayerForward calls of the same layer. The
// scratch must have been made with prefix_len P.
void ForwardPrefix(const ModelConfig& config, const AnyLayerView& weights, Tensor* prefix,
                   LayerScratch* scratch);

// Applies one transformer layer in place to `hidden` ([C·S, hidden], the S =
// seq_len − prefix_len own rows of C whole candidates). With prefix_len > 0
// the rows attend to the prefix keys and values that ForwardPrefix left in
// the scratch for this layer. The scratch must have been made with max_rows
// >= hidden->rows() and the same seq_len and prefix_len.
//
// With a `pool`, the C candidates split into min(C, pool threads, scratch
// tiles) contiguous blocks that run as one ParallelFor; a null pool (the
// serial path) runs one block on the calling thread. Never call it with a
// pool from inside one of that pool's tasks: the nested ParallelFor can
// wait on workers that are all waiting in turn.
void LayerForward(const ModelConfig& config, const AnyLayerView& weights, size_t seq_len,
                  size_t prefix_len, Tensor* hidden, LayerScratch* scratch, ThreadPool* pool);

// Pooled-position row index of candidate `c` within a chunk tensor whose
// candidates hold `cand_rows` rows each (seq_len, or a causal model's suffix
// length): last token for decoder-only models, first token (CLS) for
// encoder-only.
size_t PoolRow(const ModelConfig& config, size_t candidate, size_t cand_rows);

// Classifier head: sigmoid(w · h_pool + bias) for each of the C candidates in
// `hidden` ([C·cand_rows, hidden]). Appends C scores to `scores_out`.
void ScoreChunk(const ModelConfig& config, const HeadWeights& head, const Tensor& hidden,
                size_t cand_rows, std::vector<float>* scores_out);

}  // namespace prism

#endif  // PRISM_SRC_MODEL_LAYER_H_
