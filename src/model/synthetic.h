// Synthetic checkpoint generation.
//
// Generates deterministic, seeded weights implementing the planted-relevance
// residual-stream model (docs/ARCHITECTURE.md, "Synthetic weights and planted
// relevance"): random layer weights whose init scale is chosen so each layer
// adds a bounded perturbation to the residual stream, an embedding table of
// unit-norm random rows, and a unit-norm classifier direction. The same seed always produces bit-identical
// checkpoints, at every storage precision: reduced-precision checkpoints are
// encoded from the identical fp32 weights, so fp32-vs-reduced score drift
// measures only the encoding.
#ifndef PRISM_SRC_MODEL_SYNTHETIC_H_
#define PRISM_SRC_MODEL_SYNTHETIC_H_

#include <string>

#include "src/common/status.h"
#include "src/model/config.h"
#include "src/tensor/quant.h"

namespace prism {

// Writes a checkpoint for `config` to `path` with layer blobs stored at
// `precision` (embedding table and head stay fp32). The file is BlobFile v3:
// every blob carries its precision tag and checksum, and fp32 / fp16 layer
// blobs are stored exponent-coded (src/storage/blob_codec.h).
Status GenerateCheckpoint(const ModelConfig& config, uint64_t seed, const std::string& path,
                          Precision precision = Precision::kFp32);

// Convenience: generates (once) under /tmp and returns the path; subsequent
// calls with the same config+seed+precision reuse the existing file.
std::string EnsureCheckpoint(const ModelConfig& config, uint64_t seed,
                             Precision precision = Precision::kFp32);

}  // namespace prism

#endif  // PRISM_SRC_MODEL_SYNTHETIC_H_
