#include "src/runtime/hf_runner.h"

#include <algorithm>
#include <span>
#include <vector>

#include "src/common/timer.h"
#include "src/data/metrics.h"
#include "src/model/layer.h"
#include "src/model/pair_encoder.h"

namespace prism {

HfRunner::HfRunner(const ModelConfig& config, const std::string& checkpoint_path,
                   HfRunnerOptions options, MemoryTracker* tracker)
    : config_(config), options_(options), tracker_(tracker) {
  SsdConfig ssd = options_.device.ssd;
  if (!options_.offload) {
    // The resident baseline loads its checkpoint once at startup, outside
    // the per-request latency we report, so the load is not throttled.
    ssd.throttle = false;
  }
  checkpoint_ = OpenCheckpoint(config_, checkpoint_path, ssd, options_.precision);
  embedding_ = std::make_unique<FullEmbeddingTable>(config_, checkpoint_.reader.get(), tracker_);
  positions_ = MakePositionTable(config_, tracker_);
  if (!options_.offload) {
    resident_ = ReadResidentLayers(*checkpoint_.reader, config_, tracker_);
  }
}

std::string HfRunner::name() const {
  const std::string base = options_.offload ? "HF Offload" : "HF";
  switch (options_.precision) {
    case Precision::kFp16:
      return base + " Fp16";
    case Precision::kInt8:
      return base + " Int8";
    case Precision::kW4:
      return base + " Quant";
    case Precision::kFp32:
      break;
  }
  return base;
}

RerankResult HfRunner::Rerank(const RerankRequest& request) {
  const WallTimer total_timer;
  RerankResult result;
  result.status = ValidateRequest(config_, request);
  if (!result.status.ok()) {
    return result;
  }
  const size_t n = request.docs.size();
  const size_t seq_len = ChooseSeqLen(config_, request.query, request.docs);
  result.scores.assign(n, 0.0f);

  const size_t batch = std::min(options_.device.hf_batch_size, n);
  // The paper's baseline forwards every candidate's whole sequence: no shared
  // prefix.
  LayerScratch scratch = LayerScratch::Make(config_, batch * seq_len, seq_len, /*prefix_len=*/0,
                                            /*fan_out=*/1, tracker_);
  // The one layer an offloading runner holds at a time.
  std::vector<uint8_t> offload_blob(
      options_.offload ? LayerBlobBytes(config_, options_.precision) : 0);

  for (size_t b0 = 0; b0 < n; b0 += batch) {
    const size_t b1 = std::min(b0 + batch, n);
    const size_t bsz = b1 - b0;
    Tensor hidden(bsz * seq_len, config_.hidden, MemCategory::kHiddenStates, tracker_);
    {
      const WallTimer embed_timer;
      for (size_t c = 0; c < bsz; ++c) {
        const PairInput pair = BuildPairInput(config_, request.query, request.docs[b0 + c],
                                              request.planted_r[b0 + c], seq_len);
        EmbedPairRows(config_, embedding_.get(), checkpoint_.head, positions_, pair, 0, seq_len,
                      &hidden, c * seq_len);
      }
      result.stats.embed_ms += embed_timer.ElapsedMillis();
    }

    for (size_t layer = 0; layer < config_.n_layers; ++layer) {
      std::span<const uint8_t> blob;
      MemClaim claim;  // Offload only: released once the layer has run.
      if (options_.offload) {
        // Synchronous load right before execution — the defining trait of
        // the Accelerate offload baseline. The device model charges it.
        const WallTimer io_timer;
        const auto bytes = static_cast<int64_t>(offload_blob.size());
        claim = MemClaim(tracker_, MemCategory::kWeights, bytes);
        const Status status = checkpoint_.reader->ReadBlob(LayerBlobIndex(layer), offload_blob);
        if (!status.ok()) {
          // A failed or corrupt read fails this request, not the process:
          // no ranking, and the layer's claim is released on return.
          result.status = status;
          result.scores.clear();
          return result;
        }
        result.stats.io_stall_ms += io_timer.ElapsedMillis();
        result.stats.bytes_streamed += bytes;
        blob = offload_blob;
      } else {
        blob = resident_.blobs[layer];
      }

      const WallTimer compute_timer;
      const AnyLayerView view = ParseAnyLayerBlob(config_, blob, options_.precision);
      LayerForward(config_, view, seq_len, /*prefix_len=*/0, &hidden, &scratch,
                   /*pool=*/nullptr);
      result.stats.candidate_layers += static_cast<int64_t>(bsz);
      const int64_t compute_micros = compute_timer.ElapsedMicros();
      result.stats.compute_ms += static_cast<double>(compute_micros) / 1000.0;
      ApplyComputeSlowdown(options_.device, compute_micros);
    }
    std::vector<float> batch_scores;
    ScoreChunk(config_, checkpoint_.head, hidden, seq_len, &batch_scores);
    for (size_t c = 0; c < bsz; ++c) {
      result.scores[b0 + c] = batch_scores[c];
    }
  }

  result.topk = TopKIndices(result.scores, request.k);
  result.stats.layers_until_done = config_.n_layers;
  result.stats.latency_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace prism
