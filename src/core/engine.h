// The PRISM engine: staged monolithic forwarding (paper §3.3–§4).
//
// All candidates advance through the transformer together as one monolithic
// batch, giving the engine a global view for progressive cluster pruning
// (§4.1) while overlapped layer streaming (§4.2) keeps at most two layers'
// weights in memory (three in the carousel, whose cyclic stream keeps layer 0
// resident for the whole pass), chunked execution (§4.3) bounds
// intermediate-tensor memory (optionally spilling hidden states to disk), and
// the embedding-table LRU cache (§4.4) replaces the resident embedding table.
// Every technique is individually switchable for the ablation study (Fig 16).
//
// Execution is organised as a staged pipeline (src/core/stages.h): the
// engine owns only shared immutable resources and hands each request a
// private RequestContext, so concurrent Rerank calls and carousel passes are
// safe. One layer walk drives the stages: the engine's layer pass (a
// CarouselPass). BeginCarousel opens it cyclic for the CarouselScheduler;
// Rerank opens it for a single terminating cycle with one request aboard.
// A cyclic pass shares each layer fetch across its residents while producing
// results bit-identical to serial execution.
#ifndef PRISM_SRC_CORE_ENGINE_H_
#define PRISM_SRC_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/mutex.h"
#include "src/common/memory_tracker.h"
#include "src/common/thread_pool.h"
#include "src/core/stages.h"
#include "src/model/embedding.h"
#include "src/model/weights.h"
#include "src/runtime/device.h"
#include "src/runtime/runner.h"
#include "src/storage/blob_file.h"
#include "src/storage/hidden_spill.h"
#include "src/storage/layer_streamer.h"

namespace prism {

class PrismEngine : public CarouselRunner {
 public:
  PrismEngine(const ModelConfig& config, const std::string& checkpoint_path, PrismOptions options,
              MemoryTracker* tracker = &MemoryTracker::Global());

  RerankResult Rerank(const RerankRequest& request) override;

  // Full inference, the calibrators' ground truth: Rerank's one-cycle pass
  // with pruning off for this request only, bit-identical to HfRunner. It
  // neither reads nor writes the live dispersion threshold.
  RerankResult RerankUnpruned(const RerankRequest& request);

  // Opens a cyclic carousel pass over this engine's layer stream: the
  // CarouselScheduler admits requests at cycle boundaries and steps every
  // resident request through each arriving layer, with results bit-identical
  // to serial Rerank per request (pruning stays per-request; only fetch
  // sharing and admission timing change). The pass and its tickets are
  // confined to the calling thread; the engine must outlive them.
  std::unique_ptr<CarouselPass> BeginCarousel() override;

  std::string name() const override {
    switch (options_.precision) {
      case Precision::kFp16:
        return "PRISM Fp16";
      case Precision::kInt8:
        return "PRISM Int8";
      case Precision::kW4:
        return "PRISM Quant";
      case Precision::kFp32:
        break;
    }
    return "PRISM";
  }

  // Trace of the most recent request (trace mode only; meaningful when
  // requests are issued serially).
  std::vector<LayerTraceEntry> last_trace() const;

  const PrismOptions& options() const { return options_; }

  // The live dispersion threshold is atomic: the OnlineCalibrator nudges it
  // while requests are in flight. `options().dispersion_threshold` keeps the
  // construction-time value; read the current one here.
  float dispersion_threshold() const {
    return dispersion_threshold_.load(std::memory_order_relaxed);
  }
  void set_dispersion_threshold(float threshold) {
    dispersion_threshold_.store(threshold, std::memory_order_relaxed);
  }

  // Stats of the persistent embedding cache (nullopt when embed_cache off).
  // Cumulative across all requests served by this engine — or, with a
  // shared cache, by every engine sharing it.
  std::optional<EmbeddingCacheStats> embed_cache_stats() const;

  // Device reads of layer `layer`'s blob over the engine's life, every pass
  // included (1 when streaming is off: the resident layers load once, at
  // construction).
  int64_t layer_reads(size_t layer) const {
    return checkpoint_.reader->BlobReads(LayerBlobIndex(layer));
  }

  // Shared hidden-state spill pool; null unless offload_hidden. Exposed so
  // tests can assert that no request — including one terminated early or
  // failed by fault injection — leaks a parked chunk.
  const SpillPool* spill_pool() const { return spill_.get(); }

  // Chunk size the planner would pick for `n` candidates at `seq_len` (§4.3):
  // the largest count whose scratch fits the activation budget, floored at 2
  // to keep the compute window wide enough for I/O overlap.
  size_t PlanChunkCandidates(size_t n, size_t seq_len) const;

 private:
  // The layer pass lives in engine.cc and reaches through the engine for
  // the stage pipeline, request ids, and the live dispersion threshold.
  friend class PrismCarouselPass;

  ModelConfig config_;
  PrismOptions options_;
  MemoryTracker* tracker_;
  Checkpoint checkpoint_;
  std::unique_ptr<EmbeddingSource> owned_embedding_;  // Null with a shared cache.
  EmbeddingSource* embedding_ = nullptr;  // owned_embedding_ or the shared cache.
  EmbeddingCache* cache_ = nullptr;  // Non-owning alias when embed_cache on.
  ResidentLayers resident_;  // Empty when streaming is on.
  std::unique_ptr<SpillPool> spill_;

  std::atomic<float> dispersion_threshold_;
  std::atomic<uint64_t> next_request_id_{0};

  // Stage pipeline over the shared resources above. Constructed last; the
  // resource bundle points into this object, which never moves.
  StageResources resources_;
  std::optional<ChunkPlanner> planner_;
  std::optional<EmbedStage> embed_stage_;
  std::optional<LayerLoop> layer_loop_;
  std::optional<PruneStage> prune_stage_;

  mutable Mutex trace_mu_;
  std::vector<LayerTraceEntry> trace_ PRISM_GUARDED_BY(trace_mu_);
};

}  // namespace prism

#endif  // PRISM_SRC_CORE_ENGINE_H_
