// Benchmark-side driver of one selection through the engine's public stages.
//
// Calls the stages in the order PrismEngine::Rerank does (a one-request
// RerankBatch with no compute pool):
//
//   ChunkPlanner::Begin → EmbedStage::Run → per layer { LayerStreamer::Acquire
//   → ParseAnyLayerBlob → LayerLoop::ForwardGroup → Release →
//   LayerLoop::SettleGroup } → PruneStage::Finalize
//
// and records a span around each call, so a traced run sees where the time
// of one pass goes. It owns its own reader (and so its own simulated SSD),
// embedding cache and memory tracker; its topk and scores must be
// bit-identical to PrismEngine::Rerank on the same request and options.
#ifndef PERFBENCH_SRC_STAGE_DRIVER_H_
#define PERFBENCH_SRC_STAGE_DRIVER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/core/stages.h"
#include "src/model/embedding.h"
#include "src/model/weights.h"
#include "src/runtime/runner.h"
#include "src/storage/blob_file.h"
#include "src/storage/layer_streamer.h"

namespace perfbench {

// Per-layer sums over every pass the driver ran.
struct LayerRecord {
  size_t passes = 0;  // Passes that reached this layer.
  double acquire_ms = 0.0;
  double forward_ms = 0.0;
  double settle_ms = 0.0;
  size_t active_candidates = 0;
};

class StageDriver {
 public:
  StageDriver(const prism::ModelConfig& config, const std::string& checkpoint,
              prism::PrismOptions options);

  StageDriver(const StageDriver&) = delete;
  StageDriver& operator=(const StageDriver&) = delete;

  // One traced pass. `request_id` tags the spans.
  prism::RerankResult Run(const prism::RerankRequest& request, uint64_t request_id);

  // Chunk size the planner picks (for kernel shapes).
  size_t PlanCandidates(size_t n, size_t seq_len) const;

  const std::vector<LayerRecord>& layers() const { return layers_; }
  prism::SsdStats ssd_stats() { return reader_->ssd().stats(); }
  // Layer bytes streamed, summed over passes.
  int64_t streamed_bytes() const { return streamed_bytes_; }

 private:
  prism::ModelConfig config_;
  prism::PrismOptions options_;
  prism::MemoryTracker tracker_;
  std::unique_ptr<prism::BlobFileReader> reader_;
  std::unique_ptr<prism::EmbeddingCache> cache_;
  prism::HeadWeights head_;
  std::vector<std::vector<uint8_t>> no_resident_layers_;
  prism::StageResources res_;
  std::optional<prism::ChunkPlanner> planner_;
  std::optional<prism::EmbedStage> embed_;
  std::optional<prism::LayerLoop> loop_;
  std::optional<prism::PruneStage> prune_;
  std::vector<LayerRecord> layers_;
  int64_t streamed_bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STAGE_DRIVER_H_
