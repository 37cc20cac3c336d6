#include "src/core/engine.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/timer.h"
#include "src/model/pair_encoder.h"

namespace prism {

class PrismCarouselPass;

// One request riding the engine's carousel. Owns the RequestContext; the
// ticket address is stable (heap-allocated), so the stages can hold onto the
// context across steps. An abandoned ticket (destroyed before TakeResult —
// e.g. a fault-injection wrapper killed the request mid-flight) releases its
// parked spill chunks and deregisters from the pass.
class PrismCarouselTicket final : public CarouselTicket {
 public:
  PrismCarouselTicket(PrismCarouselPass* pass, const RerankRequest& request, uint64_t id)
      : pass_(pass), ctx_(request, id) {}
  ~PrismCarouselTicket() override;

  size_t next_layer() const override { return ctx_.next_layer; }
  bool done() const override { return ctx_.done; }
  RerankResult TakeResult() override;

  RequestContext& ctx() { return ctx_; }

 private:
  PrismCarouselPass* pass_;
  RequestContext ctx_;
  bool finalized_ = false;
};

// The engine's layer pass, the single driver of the stage pipeline. Wraps a
// LayerStreamer (or the resident layers when streaming is off) and steps the
// pipeline one layer at a time. Two shapes share every line of it:
//   - cyclic: the CarouselScheduler's endless carousel. The stream opens at
//     once, so layer 0 loads while the first joiners embed.
//   - one-cycle: Rerank. The request boards at layer 0 and the stream
//     terminates after the last layer. It opens at the first Step, after
//     embedding, so the request reads the device in plain
//     plan → embed → layer 0..L−1 order.
// Stall time is charged to the group that waited for the layer; each
// consumed layer's bytes are split across every request still riding the
// pass. A malformed request gets a ticket that is done at admission, is
// never stepped, is charged nothing, and reports its kInvalidArgument
// status from TakeResult. Confined to one driver thread — only admission's
// embed fan-out and Step's candidate-block fan-out inside LayerForward are
// parallel. A request admitted without a pool holds one attention tile, so
// its LayerForward runs one block even when Step passes a pool.
class PrismCarouselPass final : public CarouselPass {
 public:
  PrismCarouselPass(PrismEngine* engine, bool cyclic, bool pruning = true)
      : engine_(engine), cyclic_(cyclic), pruning_(pruning && engine->options_.pruning) {
    if (cyclic_) {
      OpenStreamer();
    }
  }

  // The streamer's destructor cancels its look-ahead read: layers nobody
  // will consume are not waited out.
  ~PrismCarouselPass() override {
    PRISM_CHECK_MSG(live_.empty(), "carousel pass destroyed with live tickets");
  }

  size_t n_layers() const override { return engine_->config_.n_layers; }

  // A boundary's joiners embed in parallel — the carousel is stalled while
  // they board, so this window is pure time-to-first-layer.
  std::vector<std::unique_ptr<CarouselTicket>> AdmitBatch(
      std::span<const RerankRequest* const> requests, ThreadPool* compute_pool) override {
    std::vector<std::unique_ptr<PrismCarouselTicket>> planned;
    std::vector<RequestContext*> boarding;
    planned.reserve(requests.size());
    const size_t fan_out = compute_pool != nullptr ? compute_pool->num_threads() : 1;
    for (const RerankRequest* request : requests) {
      planned.push_back(PlanTicket(*request, fan_out));
      if (!planned.back()->done()) {
        boarding.push_back(&planned.back()->ctx());
      }
    }
    if (compute_pool != nullptr && boarding.size() > 1) {
      compute_pool->ParallelFor(0, boarding.size(),
                                [&](size_t i) { engine_->embed_stage_->Run(boarding[i]); });
    } else {
      for (RequestContext* ctx : boarding) {
        engine_->embed_stage_->Run(ctx);
      }
    }
    std::vector<std::unique_ptr<CarouselTicket>> tickets;
    tickets.reserve(planned.size());
    for (auto& ticket : planned) {
      if (!ticket->done()) {
        live_.push_back(ticket.get());
      }
      tickets.push_back(std::move(ticket));
    }
    return tickets;
  }

  void Step(size_t layer, std::span<CarouselTicket* const> group,
            ThreadPool* compute_pool) override {
    PRISM_CHECK_LT(layer, n_layers());
    PRISM_CHECK_EQ(layer, seq_ % n_layers());  // Layers arrive in cyclic order.
    PRISM_CHECK_MSG(cyclic_ || seq_ < n_layers(), "one-cycle pass stepped past its last layer");
    if (streamer_ == nullptr && engine_->options_.streaming) {
      OpenStreamer();
    }

    std::vector<RequestContext*> ctxs;
    ctxs.reserve(group.size());
    for (CarouselTicket* ticket : group) {
      ctxs.push_back(&static_cast<PrismCarouselTicket*>(ticket)->ctx());
    }

    std::span<const uint8_t> blob;
    if (streamer_ != nullptr) {
      const WallTimer stall_timer;
      blob = streamer_->Acquire(seq_);
      if (!group.empty()) {
        const double stall_share =
            stall_timer.ElapsedMillis() / static_cast<double>(group.size());
        for (RequestContext* ctx : ctxs) {
          ctx->result.stats.io_stall_ms += stall_share;
        }
      }
    } else {
      blob = engine_->resident_.blobs[layer];
    }

    const AnyLayerView view =
        ParseAnyLayerBlob(engine_->config_, blob, engine_->options_.precision);
    const bool last_layer = layer + 1 == n_layers();
    engine_->layer_loop_->ForwardGroup(ctxs, layer, view, last_layer, compute_pool);

    // The fetch served the whole cycle: split it across everyone riding it.
    // Resident (non-streaming) layers charge nothing, matching the serial
    // path. (live_ can be empty when a fault-injection wrapper killed every
    // resident but still steps the pass to keep the walk aligned.)
    if (streamer_ != nullptr && !live_.empty()) {
      const int64_t byte_share =
          static_cast<int64_t>(blob.size()) / static_cast<int64_t>(live_.size());
      for (PrismCarouselTicket* ticket : live_) {
        ticket->ctx().result.stats.bytes_streamed += byte_share;
      }
    }

    // Release before settling: the next layer prefetches into the freed
    // buffer while pruning runs.
    if (streamer_ != nullptr) {
      streamer_->Release(seq_);
    }
    engine_->layer_loop_->SettleGroup(ctxs, layer, last_layer);
    ++seq_;
  }

  void SkipToNextCycle() override {
    if (seq_ % n_layers() == 0) {
      return;  // Already at a boundary (e.g. drained exactly at the wrap).
    }
    const size_t next_boundary = (seq_ / n_layers() + 1) * n_layers();
    if (streamer_ != nullptr) {
      streamer_->SkipTo(next_boundary);
    }
    seq_ = next_boundary;
  }

  // Ticket exit paths (called by PrismCarouselTicket only).
  void Finalize(PrismCarouselTicket* ticket) {
    Deregister(ticket);
    if (!ticket->ctx().result.status.ok()) {
      return;  // Rejected at admission: nothing ran, nothing to finalize.
    }
    engine_->prune_stage_->Finalize(&ticket->ctx());
    if (engine_->options_.trace) {
      // The most recently finalized request's records are what last_trace()
      // returns.
      MutexLock lock(engine_->trace_mu_);
      engine_->trace_ = std::move(ticket->ctx().trace);
    }
  }

  void Abandon(PrismCarouselTicket* ticket) {
    ReleaseSpilledChunks(engine_->resources_, &ticket->ctx());
    Deregister(ticket);
  }

 private:
  void OpenStreamer() {
    std::vector<size_t> schedule;
    for (size_t layer = 0; layer < engine_->config_.n_layers; ++layer) {
      schedule.push_back(LayerBlobIndex(layer));
    }
    streamer_ =
        std::make_unique<LayerStreamer>(engine_->checkpoint_.reader.get(), std::move(schedule),
                                        /*buffer_count=*/2, engine_->tracker_, cyclic_);
  }

  // Validates and plans one request for a LayerForward fan-out of
  // `fan_out` blocks. A malformed one fails alone, before any engine work:
  // its ticket is done at once and never boards.
  std::unique_ptr<PrismCarouselTicket> PlanTicket(const RerankRequest& request,
                                                  size_t fan_out) {
    auto ticket = std::make_unique<PrismCarouselTicket>(
        this, request, engine_->next_request_id_.fetch_add(1, std::memory_order_relaxed));
    RequestContext& ctx = ticket->ctx();
    ctx.result.status = ValidateRequest(engine_->config_, request);
    if (!ctx.result.status.ok()) {
      ctx.done = true;
      return ticket;
    }
    ctx.pruning = pruning_;
    if (pruning_) {  // A full-depth request reads no threshold.
      ctx.pruner_options.dispersion_threshold = engine_->dispersion_threshold();
      ctx.pruner_options.prune_winners = engine_->options_.prune_winners;
      ctx.pruner_options.kmeans_max_k = engine_->options_.kmeans_max_k;
      ctx.pruner_options.seed = engine_->options_.seed;
    }
    engine_->planner_->Begin(&ctx, fan_out);
    return ticket;
  }

  void Deregister(PrismCarouselTicket* ticket) {
    live_.erase(std::remove(live_.begin(), live_.end(), ticket), live_.end());
  }

  PrismEngine* engine_;
  const bool cyclic_;
  const bool pruning_;  // Off: every request is planned full-depth.
  std::unique_ptr<LayerStreamer> streamer_;  // Null when streaming is off.
  size_t seq_ = 0;                           // Monotonic carousel position.
  std::vector<PrismCarouselTicket*> live_;   // Admitted, result not yet taken.
};

PrismCarouselTicket::~PrismCarouselTicket() {
  if (!finalized_) {
    pass_->Abandon(this);
  }
}

RerankResult PrismCarouselTicket::TakeResult() {
  PRISM_CHECK_MSG(ctx_.done, "TakeResult before the request finished");
  PRISM_CHECK_MSG(!finalized_, "TakeResult called twice");
  finalized_ = true;
  pass_->Finalize(this);
  return std::move(ctx_.result);
}

PrismEngine::PrismEngine(const ModelConfig& config, const std::string& checkpoint_path,
                         PrismOptions options, MemoryTracker* tracker)
    : config_(config),
      options_(options),
      tracker_(tracker),
      checkpoint_(
          OpenCheckpoint(config_, checkpoint_path, options_.device.ssd, options_.precision)),
      dispersion_threshold_(options.dispersion_threshold) {
  BlobFileReader* reader = checkpoint_.reader.get();
  if (options_.embed_cache && options_.shared_embed_cache != nullptr) {
    // External cache: use the caller-owned cache (its misses read
    // through its own reader, so this engine's reader serves layers only).
    cache_ = options_.shared_embed_cache;
    embedding_ = cache_;
  } else if (options_.embed_cache) {
    const auto rows = static_cast<size_t>(
        std::max(1.0, options_.embed_cache_fraction * static_cast<double>(config_.vocab_size)));
    auto cache = std::make_unique<EmbeddingCache>(config_, reader, rows, tracker_);
    cache_ = cache.get();
    owned_embedding_ = std::move(cache);
    embedding_ = owned_embedding_.get();
  } else {
    owned_embedding_ = std::make_unique<FullEmbeddingTable>(config_, reader, tracker_);
    embedding_ = owned_embedding_.get();
  }

  if (!options_.streaming) {
    resident_ = ReadResidentLayers(*reader, config_, tracker_);
  }

  if (options_.offload_hidden) {
    spill_ = std::make_unique<SpillPool>(options_.device.ssd, tracker_);
  }

  resources_.config = &config_;
  resources_.options = &options_;
  resources_.tracker = tracker_;
  resources_.reader = reader;
  resources_.embedding = embedding_;
  resources_.cache = cache_;
  resources_.head = &checkpoint_.head;
  resources_.resident_layers = &resident_.blobs;
  resources_.spill = spill_.get();
  planner_.emplace(resources_);
  embed_stage_.emplace(resources_);
  layer_loop_.emplace(resources_);
  prune_stage_.emplace(resources_);
}

std::optional<EmbeddingCacheStats> PrismEngine::embed_cache_stats() const {
  if (cache_ == nullptr) {
    return std::nullopt;
  }
  return cache_->stats();
}

std::vector<LayerTraceEntry> PrismEngine::last_trace() const {
  MutexLock lock(trace_mu_);
  return trace_;
}

size_t PrismEngine::PlanChunkCandidates(size_t n, size_t seq_len, size_t query_len) const {
  return planner_->PlanCandidates(n, seq_len, SharedPrefixLen(config_, query_len, seq_len));
}

std::unique_ptr<CarouselPass> PrismEngine::BeginCarousel() {
  return std::make_unique<PrismCarouselPass>(this, /*cyclic=*/true);
}

namespace {

// One revolution of a terminating pass with this request aboard: it boards
// at layer 0 and steps alone until it finishes.
RerankResult RerankAlone(PrismEngine* engine, const RerankRequest& request, bool pruning) {
  PrismCarouselPass pass(engine, /*cyclic=*/false, pruning);
  const RerankRequest* boarding = &request;
  std::unique_ptr<CarouselTicket> ticket = std::move(pass.AdmitBatch({&boarding, 1}, nullptr)[0]);
  CarouselTicket* group = ticket.get();
  for (size_t layer = 0; !ticket->done(); ++layer) {
    pass.Step(layer, {&group, 1}, nullptr);
  }
  return ticket->TakeResult();
}

}  // namespace

RerankResult PrismEngine::Rerank(const RerankRequest& request) {
  return RerankAlone(this, request, /*pruning=*/true);
}

RerankResult PrismEngine::RerankUnpruned(const RerankRequest& request) {
  return RerankAlone(this, request, /*pruning=*/false);
}

}  // namespace prism
