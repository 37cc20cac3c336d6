#include "perfbench/src/stage_driver.h"

#include <algorithm>
#include <stdexcept>

#include "perfbench/src/spans.h"
#include "src/common/timer.h"

namespace perfbench {

using prism::RerankRequest;
using prism::RerankResult;

StageDriver::StageDriver(const prism::ModelConfig& config, const std::string& checkpoint,
                         prism::PrismOptions options)
    : config_(config), options_(options) {
  if (!options_.streaming || !options_.embed_cache || options_.offload_hidden ||
      options_.shared_embed_cache != nullptr) {
    throw std::invalid_argument("stage driver supports the default streaming configuration only");
  }
  auto reader = prism::BlobFileReader::Open(checkpoint, options_.device.ssd);
  if (!reader.ok()) {
    throw std::runtime_error(reader.status().ToString());
  }
  reader_ = std::move(reader).value();
  const prism::Status valid = prism::ValidateCheckpoint(*reader_, config_, options_.precision);
  if (!valid.ok()) {
    throw std::runtime_error(valid.ToString());
  }
  // Same cache geometry as the engine's private cache.
  const auto rows = static_cast<size_t>(std::max(
      1.0, options_.embed_cache_fraction * static_cast<double>(config_.vocab_size)));
  cache_ = std::make_unique<prism::EmbeddingCache>(config_, reader_.get(), rows, &tracker_);
  std::vector<uint8_t> head_blob(
      static_cast<size_t>(reader_->BlobSize(prism::HeadBlobIndex(config_))));
  const prism::Status head = reader_->ReadBlob(prism::HeadBlobIndex(config_), head_blob);
  if (!head.ok()) {
    throw std::runtime_error(head.ToString());
  }
  head_ = prism::ParseHeadBlob(config_, head_blob);

  res_.config = &config_;
  res_.options = &options_;
  res_.tracker = &tracker_;
  res_.reader = reader_.get();
  res_.embedding = cache_.get();
  res_.cache = cache_.get();
  res_.head = &head_;
  res_.resident_layers = &no_resident_layers_;
  res_.spill = nullptr;
  planner_.emplace(res_);
  embed_.emplace(res_);
  loop_.emplace(res_);
  prune_.emplace(res_);
  layers_.resize(config_.n_layers);
}

size_t StageDriver::PlanCandidates(size_t n, size_t seq_len) const {
  return planner_->PlanCandidates(n, seq_len);
}

RerankResult StageDriver::Run(const RerankRequest& request, uint64_t request_id) {
  const RequestScope scope(request_id);
  const ScopedSpan pass_span("pass");
  prism::RequestContext ctx(request, request_id);
  ctx.pruner_options.dispersion_threshold = options_.dispersion_threshold;
  ctx.pruner_options.prune_winners = options_.prune_winners;
  ctx.pruner_options.kmeans_max_k = options_.kmeans_max_k;
  ctx.pruner_options.seed = options_.seed;
  {
    const ScopedSpan span("pass.plan");
    planner_->Begin(&ctx);
  }
  {
    const ScopedSpan span("pass.embed");
    embed_->Run(&ctx);
  }

  std::vector<size_t> schedule;
  for (size_t layer = 0; layer < config_.n_layers; ++layer) {
    schedule.push_back(prism::LayerBlobIndex(layer));
  }
  prism::LayerStreamer streamer(reader_.get(), std::move(schedule), /*buffer_count=*/2,
                                &tracker_);
  prism::RequestContext* group[] = {&ctx};
  for (size_t layer = 0; layer < config_.n_layers; ++layer) {
    LayerRecord& record = layers_[layer];
    ++record.passes;
    record.active_candidates += ctx.active.size();
    const bool last_layer = layer + 1 == config_.n_layers;

    std::span<const uint8_t> blob;
    {
      const ScopedSpan span("pass.acquire", static_cast<int64_t>(layer));
      const prism::WallTimer timer;
      blob = streamer.Acquire(layer);
      const double wait_ms = timer.ElapsedMillis();
      ctx.result.stats.io_stall_ms += wait_ms;
      record.acquire_ms += wait_ms;
    }
    {
      const ScopedSpan span("pass.forward", static_cast<int64_t>(layer));
      const prism::WallTimer timer;
      const prism::AnyLayerView view = prism::ParseAnyLayerBlob(config_, blob, options_.precision);
      loop_->ForwardGroup(group, layer, view, last_layer, /*compute_pool=*/nullptr);
      record.forward_ms += timer.ElapsedMillis();
    }
    {
      const ScopedSpan span("pass.settle", static_cast<int64_t>(layer));
      const prism::WallTimer timer;
      streamer.Release(layer);
      loop_->SettleGroup(group, layer, last_layer);
      record.settle_ms += timer.ElapsedMillis();
    }
    if (ctx.done) {
      if (!last_layer) {
        streamer.TruncateSchedule(layer);
      }
      break;
    }
  }
  const prism::StreamerStats stats = streamer.stats();
  ctx.result.stats.bytes_streamed = stats.bytes_loaded;
  streamed_bytes_ += stats.bytes_loaded;
  {
    const ScopedSpan span("pass.finalize");
    prune_->Finalize(&ctx);
  }
  return std::move(ctx.result);
}

}  // namespace perfbench
