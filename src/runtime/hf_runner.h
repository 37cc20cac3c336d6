// The paper's baselines (§6.1): HuggingFace-Transformers-style inference.
// Candidates are processed in fixed small batches of device.hf_batch_size
// (vanilla systems split inputs to balance compute and memory); each batch
// is forwarded through all layers and scored at the final layer. The two
// baselines differ only in where a layer's bytes come from:
//   - "HF" / "HF Quant" (offload off): every weight (embedding table, every
//     layer, head) is resident for the runner's lifetime, loaded once at
//     startup.
//   - "HF Offload" (offload on): HuggingFace Accelerate's disk offloading.
//     Each layer is read synchronously through the device right before it
//     runs — no prefetch, no overlap — so an N-candidate request pays
//     ceil(N / batch) × n_layers layer loads, with at most one layer's
//     weights resident (plus the embedding table).
// Both modes run the same arithmetic, so their scores are bit-identical.
#ifndef PRISM_SRC_RUNTIME_HF_RUNNER_H_
#define PRISM_SRC_RUNTIME_HF_RUNNER_H_

#include <memory>
#include <string>

#include "src/common/memory_tracker.h"
#include "src/model/embedding.h"
#include "src/model/weights.h"
#include "src/runtime/device.h"
#include "src/runtime/runner.h"
#include "src/tensor/tensor.h"

namespace prism {

struct HfRunnerOptions {
  DeviceProfile device = NvidiaProfile();
  Precision precision = Precision::kFp32;  // Reduced weights ("HF Quant" etc).
  bool offload = false;                    // Read each layer per batch ("HF Offload").
};

class HfRunner : public Runner {
 public:
  // `checkpoint_path` must be a checkpoint stored at `options.precision`.
  HfRunner(const ModelConfig& config, const std::string& checkpoint_path,
           HfRunnerOptions options, MemoryTracker* tracker = &MemoryTracker::Global());

  // A malformed request gets ValidateRequest's kInvalidArgument; a failed or
  // corrupt layer read (offload only) fails the request with the read's
  // status and an empty top-K.
  RerankResult Rerank(const RerankRequest& request) override;
  std::string name() const override;

 private:
  ModelConfig config_;
  HfRunnerOptions options_;
  MemoryTracker* tracker_;
  Checkpoint checkpoint_;
  std::unique_ptr<FullEmbeddingTable> embedding_;
  Tensor positions_;  // [max_seq, hidden] (MakePositionTable).
  ResidentLayers resident_;  // Empty when offloading.
};

}  // namespace prism

#endif  // PRISM_SRC_RUNTIME_HF_RUNNER_H_
