// On-disk weight layout and in-memory weight views.
//
// A model checkpoint is a blob file with the layout:
//   blob 0               embedding table, fp32 [vocab, hidden]
//   blob 1 .. n_layers   one transformer layer each
//   blob n_layers + 1    head: classifier weight [hidden] + bias [1], fp32
//
// Layer blobs are stored at one of four precisions (whole checkpoint is a
// single tier; embedding and head stay fp32 at every tier). The fp32 layout,
// in floats:
//   wq[D·D] wk[D·D] wv[D·D] wo[D·D]
//   w_gate[F·D]   (decoder-only; absent for encoder models)
//   w_up[F·D] w_down[D·F]
//   norm1_gain[D] norm1_bias[D] norm2_gain[D] norm2_bias[D]
// Reduced-precision layouts replace each big matrix with its encoded span
// (MatrixSpanBytes for that precision) and keep the norm vectors fp32.
#ifndef PRISM_SRC_MODEL_WEIGHTS_H_
#define PRISM_SRC_MODEL_WEIGHTS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/common/status.h"
#include "src/model/config.h"
#include "src/storage/blob_file.h"
#include "src/tensor/quant.h"

namespace prism {

// Blob indices within a checkpoint.
inline size_t EmbeddingBlobIndex() { return 0; }
inline size_t LayerBlobIndex(size_t layer) { return 1 + layer; }
inline size_t HeadBlobIndex(const ModelConfig& config) { return 1 + config.n_layers; }

// Byte size of a single layer blob at the given storage precision. This is
// what the carousel/prefetcher stream per layer per cycle, so reduced tiers
// cut SSD traffic by exactly the ratio of these sizes.
size_t LayerBlobBytes(const ModelConfig& config, Precision precision);

// Non-owning view of one weight matrix at whatever precision its blob is
// stored in, with a fused dequantising GEMM: the forward pass calls
// MatMulTransB and never materialises fp32 weights for reduced tiers.
struct WeightView {
  Precision precision = Precision::kFp32;
  size_t rows = 0;
  size_t cols = 0;
  const float* f32 = nullptr;      // kFp32
  Fp16MatrixView f16;              // kFp16
  Int8MatrixView i8;               // kInt8
  QuantMatrixView q4;              // kW4

  // C[m, rows] = A[m, cols] · Wᵀ, dequantising on the fly for reduced tiers.
  void MatMulTransB(const float* a, size_t m, float* c) const;

  // The view of weight rows [row0, row0 + n), i.e. output columns
  // [row0, row0 + n) of MatMulTransB. Each output is the same strict-k sum,
  // so a slice's product equals those columns of the full product bit for bit.
  WeightView RowSlice(size_t row0, size_t n) const;
};

// Precision-generic view passed to the layer forward.
struct AnyLayerView {
  Precision precision = Precision::kFp32;
  WeightView wq, wk, wv, wo;
  WeightView w_gate;  // rows == 0 for encoder models
  WeightView w_up, w_down;
  std::span<const float> norm1_gain;
  std::span<const float> norm1_bias;
  std::span<const float> norm2_gain;
  std::span<const float> norm2_bias;
};

// Parses views out of a raw layer blob (no copy; blob must outlive the view).
AnyLayerView ParseAnyLayerBlob(const ModelConfig& config, std::span<const uint8_t> blob,
                               Precision precision);

// Checks an opened checkpoint against the model config and the precision the
// caller intends to stream at: blob count, per-blob byte sizes, and each
// layer's precision tag and quantisation group. Catches a checkpoint
// generated at one tier being opened at another before any garbage maths
// runs.
Status ValidateCheckpoint(const BlobFileReader& reader, const ModelConfig& config,
                          Precision precision);

// Classifier head (copied out of its blob; it is a handful of floats).
struct HeadWeights {
  std::vector<float> w;  // [hidden] — also the planted relevance direction.
  float bias = 0.0f;
};

HeadWeights ParseHeadBlob(const ModelConfig& config, std::span<const uint8_t> blob);

// A checkpoint opened for inference: the reader every later blob read goes
// through, and the head, which every runner keeps in memory.
struct Checkpoint {
  std::unique_ptr<BlobFileReader> reader;
  HeadWeights head;
};

// The one place a runner opens its checkpoint: opens `path` behind a device
// configured by `ssd`, validates it for `config` at `precision`
// (ValidateCheckpoint) and reads the head. CHECKs on any failure.
Checkpoint OpenCheckpoint(const ModelConfig& config, const std::string& path,
                          const SsdConfig& ssd, Precision precision);

// Every layer blob read into memory, claimed under kWeights for as long as
// the claim lives. Used by runners that keep all layers resident.
struct ResidentLayers {
  std::vector<std::vector<uint8_t>> blobs;
  MemClaim claim;
};

ResidentLayers ReadResidentLayers(BlobFileReader& reader, const ModelConfig& config,
                                  MemoryTracker* tracker);

}  // namespace prism

#endif  // PRISM_SRC_MODEL_WEIGHTS_H_
