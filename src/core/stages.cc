#include "src/core/stages.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"
#include "src/data/metrics.h"

namespace prism {

namespace {
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
}  // namespace

Tensor TakeChunkHidden(const StageResources& res, RequestContext* ctx, size_t chunk_index) {
  ChunkState& chunk = ctx->chunks[chunk_index];
  if (chunk.spilled) {
    chunk.spilled = false;
    return res.spill->Take(ctx->SpillKey(chunk_index));
  }
  Tensor t = std::move(*chunk.hidden);
  chunk.hidden.reset();
  return t;
}

void StowChunkHidden(const StageResources& res, RequestContext* ctx, size_t chunk_index,
                     Tensor hidden, bool more_layers) {
  ChunkState& chunk = ctx->chunks[chunk_index];
  if (res.options->offload_hidden && more_layers) {
    res.spill->SpillAsync(ctx->SpillKey(chunk_index), std::move(hidden));
    chunk.spilled = true;
  } else {
    chunk.hidden = std::move(hidden);
    chunk.spilled = false;
  }
}

void ReleaseSpilledChunks(const StageResources& res, RequestContext* ctx) {
  if (res.spill == nullptr) {
    return;
  }
  for (size_t ci = 0; ci < ctx->chunks.size(); ++ci) {
    if (ctx->chunks[ci].spilled) {
      res.spill->Drop(ctx->SpillKey(ci));
      ctx->chunks[ci].spilled = false;
    }
  }
}

size_t ChunkPlanner::PlanCandidates(size_t n, size_t seq_len, size_t prefix_len,
                                    size_t fan_out) const {
  const PrismOptions& options = *res_.options;
  if (!options.chunked) {
    return n;
  }
  if (options.chunk_candidates > 0) {
    return std::min(options.chunk_candidates, n);
  }
  // With hidden-state offload, each layer's first reload and last spill are
  // exposed I/O that grows with the chunk, so the chunk is capped as well.
  const size_t most =
      options.offload_hidden ? (n + kOffloadMinChunks - 1) / kOffloadMinChunks : n;
  // Largest c with scratch(c·S), attention tiles and the prefix's keys and
  // values included, within the activation budget; floor 2 keeps each
  // chunk's compute window wide enough to overlap a layer load.
  const size_t suffix = seq_len - prefix_len;
  size_t best = 1;
  for (size_t c = 1; c <= most; ++c) {
    if (LayerScratch::BytesFor(*res_.config, c * suffix, seq_len, prefix_len,
                               std::min(c, fan_out)) <= options.device.activation_budget_bytes) {
      best = c;
    } else {
      break;
    }
  }
  return std::max<size_t>(std::min<size_t>(2, n), best);
}

std::vector<ChunkState> ChunkPlanner::Partition(const std::vector<size_t>& ids,
                                                size_t chunk_cand) {
  std::vector<ChunkState> chunks;
  for (size_t at = 0; at < ids.size(); at += chunk_cand) {
    ChunkState chunk;
    const size_t end = std::min(at + chunk_cand, ids.size());
    chunk.ids.assign(ids.begin() + static_cast<ptrdiff_t>(at),
                     ids.begin() + static_cast<ptrdiff_t>(end));
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

void ChunkPlanner::Begin(RequestContext* ctx, size_t fan_out) const {
  const RerankRequest& request = *ctx->request;
  const size_t n = ctx->n();
  PRISM_CHECK_EQ(n, request.planted_r.size());
  PRISM_CHECK_GT(request.k, 0u);
  ctx->seq_len = ChooseSeqLen(*res_.config, request.query, request.docs);
  ctx->prefix_len = SharedPrefixLen(*res_.config, request.query.size(), ctx->seq_len);
  ctx->result.scores.assign(n, kNan);
  ctx->remaining_k = std::min(request.k, n);

  ctx->chunk_cand = PlanCandidates(n, ctx->seq_len, ctx->prefix_len, fan_out);
  ctx->scratch.emplace(LayerScratch::Make(*res_.config, ctx->chunk_cand * ctx->suffix_len(),
                                          ctx->seq_len, ctx->prefix_len,
                                          std::min(ctx->chunk_cand, fan_out), res_.tracker));

  ctx->active.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ctx->active[i] = i;
  }
  ctx->chunks = Partition(ctx->active, ctx->chunk_cand);
}

const Tensor& EmbedStage::Positions() const {
  std::call_once(positions_once_,
                 [this] { positions_ = MakePositionTable(*res_.config, res_.tracker); });
  return positions_;
}

void EmbedStage::Run(RequestContext* ctx) const {
  const WallTimer embed_timer;
  const ModelConfig& config = *res_.config;
  const RerankRequest& request = *ctx->request;
  const size_t n = ctx->n();
  const size_t seq_len = ctx->seq_len;
  // Build all pair inputs first so the cache can batch-load the request's
  // unique missing tokens in one device read (§4.5).
  ctx->pairs.reserve(n);
  std::vector<uint32_t> all_tokens;
  for (size_t id = 0; id < n; ++id) {
    ctx->pairs.push_back(BuildPairInput(config, request.query, request.docs[id],
                                        request.planted_r[id], seq_len));
    all_tokens.insert(all_tokens.end(), ctx->pairs.back().tokens.begin(),
                      ctx->pairs.back().tokens.end());
  }
  if (res_.cache != nullptr) {
    res_.cache->PrefetchTokens(all_tokens);
  }
  const Tensor& positions = Positions();
  // The shared prefix is embedded once, from the first candidate's pair:
  // every pair's first P tokens are the same and end at its [SEP], after
  // which the planted signal starts. The other candidates still look its
  // tokens up, into a throwaway row, so the cache sees the lookups of the
  // unshared embed in the same order: its LRU order, hit counts and miss
  // reads do not depend on the sharing.
  const size_t prefix_len = ctx->prefix_len;
  const size_t suffix_len = ctx->suffix_len();
  ctx->prefix = Tensor(prefix_len, config.hidden, MemCategory::kHiddenStates, res_.tracker);
  std::vector<float> discard(config.hidden);
  for (size_t ci = 0; ci < ctx->chunks.size(); ++ci) {
    ChunkState& chunk = ctx->chunks[ci];
    Tensor hidden(chunk.ids.size() * suffix_len, config.hidden, MemCategory::kHiddenStates,
                  res_.tracker);
    for (size_t c = 0; c < chunk.ids.size(); ++c) {
      const PairInput& pair = ctx->pairs[chunk.ids[c]];
      if (ci == 0 && c == 0) {
        PRISM_CHECK(prefix_len == 0 || pair.sep + 1 == prefix_len);
        EmbedPairRows(config, res_.embedding, *res_.head, positions, pair, 0, prefix_len,
                      &ctx->prefix, 0);
      } else {
        for (size_t t = 0; t < prefix_len; ++t) {
          res_.embedding->Lookup(pair.tokens[t], discard);
        }
      }
      EmbedPairRows(config, res_.embedding, *res_.head, positions, pair, prefix_len, seq_len,
                    &hidden, c * suffix_len);
    }
    StowChunkHidden(res_, ctx, ci, std::move(hidden), /*more_layers=*/true);
  }
  ctx->result.stats.embed_ms = embed_timer.ElapsedMillis();
}

bool PruneStage::AfterLayer(RequestContext* ctx, size_t layer, bool last_layer) const {
  const PrismOptions& options = *res_.options;
  const size_t n = ctx->n();
  std::vector<size_t>& active = ctx->active;
  std::vector<float>& scores_active = ctx->scores_active;

  // Record provisional scores for all active candidates.
  PRISM_CHECK_EQ(scores_active.size(), active.size());
  for (size_t i = 0; i < active.size(); ++i) {
    ctx->result.scores[active[i]] = scores_active[i];
  }

  // Trace mode: record everything, prune nothing.
  if (options.trace) {
    LayerTraceEntry entry;
    entry.layer = layer;
    entry.active = active.size();
    entry.cv = CoefficientOfVariation(scores_active);
    entry.scores.assign(n, kNan);
    entry.clusters.assign(n, -1);
    const Clustering clustering =
        ClusterScores(scores_active, options.kmeans_max_k, options.seed);
    for (size_t i = 0; i < active.size(); ++i) {
      entry.scores[active[i]] = scores_active[i];
      entry.clusters[active[i]] = clustering.assignment[i];
    }
    ctx->trace.push_back(std::move(entry));
    return false;
  }

  // Progressive cluster pruning between layers (skip after the last layer —
  // final scores settle the remaining candidates anyway).
  if (!ctx->pruning || last_layer) {
    return false;
  }
  const PruneDecision decision = DecidePrune(scores_active, ctx->remaining_k,
                                             ctx->pruner_options);
  if (!decision.triggered && !decision.terminate) {
    return false;
  }

  for (size_t idx : decision.selected) {
    ctx->finalized.emplace_back(scores_active[idx], active[idx]);
  }
  PRISM_CHECK_GE(ctx->remaining_k, decision.selected.size());
  ctx->remaining_k -= decision.selected.size();

  if (decision.terminate || ctx->remaining_k == 0 || decision.deferred.empty()) {
    ctx->terminated = true;
    return true;
  }

  if (decision.selected.empty() && decision.dropped.empty()) {
    return false;  // Triggered but nothing to prune; chunks stay as they are.
  }

  // Compact: gather surviving candidates' hidden rows into fresh chunks
  // (the paper's shrinking monolithic batch, Fig 3: BS 20 → 16 → 10).
  std::vector<size_t> survivors;
  survivors.reserve(decision.deferred.size());
  for (size_t idx : decision.deferred) {
    survivors.push_back(active[idx]);
  }
  // Map original id → (chunk, slot) for row gathering.
  const size_t suffix_len = ctx->suffix_len();
  const size_t hidden_dim = res_.config->hidden;
  std::vector<std::pair<size_t, size_t>> location(n, {SIZE_MAX, SIZE_MAX});
  for (size_t ci = 0; ci < ctx->chunks.size(); ++ci) {
    for (size_t c = 0; c < ctx->chunks[ci].ids.size(); ++c) {
      location[ctx->chunks[ci].ids[c]] = {ci, c};
    }
  }
  std::vector<Tensor> materialized;
  materialized.reserve(ctx->chunks.size());
  for (size_t ci = 0; ci < ctx->chunks.size(); ++ci) {
    materialized.push_back(TakeChunkHidden(res_, ctx, ci));
  }
  // The old chunks' tensors were all taken above; replace them wholesale.
  ctx->chunks = ChunkPlanner::Partition(survivors, ctx->chunk_cand);
  for (size_t ci = 0; ci < ctx->chunks.size(); ++ci) {
    ChunkState& chunk = ctx->chunks[ci];
    Tensor hidden(chunk.ids.size() * suffix_len, hidden_dim, MemCategory::kHiddenStates,
                  res_.tracker);
    for (size_t c = 0; c < chunk.ids.size(); ++c) {
      const auto [src_chunk, src_slot] = location[chunk.ids[c]];
      PRISM_CHECK_NE(src_chunk, SIZE_MAX);
      const float* src = materialized[src_chunk].data() + src_slot * suffix_len * hidden_dim;
      std::copy(src, src + suffix_len * hidden_dim, hidden.data() + c * suffix_len * hidden_dim);
    }
    StowChunkHidden(res_, ctx, ci, std::move(hidden), /*more_layers=*/true);
  }
  materialized.clear();
  ctx->active = std::move(survivors);
  return false;
}

void PruneStage::Finalize(RequestContext* ctx) const {
  // Early termination can leave chunks parked on disk; release their pool
  // entries so a long-running service stays bounded.
  ReleaseSpilledChunks(res_, ctx);

  // Fill any remaining top-K slots from the still-active candidates by final
  // provisional score.
  if (!ctx->terminated && ctx->remaining_k > 0) {
    const std::vector<size_t> order = TopKIndices(ctx->scores_active, ctx->remaining_k);
    for (size_t idx : order) {
      ctx->finalized.emplace_back(ctx->scores_active[idx], ctx->active[idx]);
    }
  }

  std::sort(ctx->finalized.begin(), ctx->finalized.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return a.second < b.second;
  });
  const size_t want = std::min(ctx->request->k, ctx->n());
  for (const auto& [score, id] : ctx->finalized) {
    if (ctx->result.topk.size() == want) {
      break;
    }
    ctx->result.topk.push_back(id);
  }

  ctx->result.stats.latency_ms = ctx->timer.ElapsedMillis();
}

void LayerLoop::ForwardOneLayer(RequestContext* ctx, const AnyLayerView& view, bool last_layer,
                                ThreadPool* compute_pool) const {
  const ModelConfig& config = *res_.config;
  const PrismOptions& options = *res_.options;
  const auto charge = [&](const WallTimer& compute_timer) {
    const int64_t compute_micros = compute_timer.ElapsedMicros();
    ctx->result.stats.compute_ms += static_cast<double>(compute_micros) / 1000.0;
    ApplyComputeSlowdown(options.device, compute_micros);
  };
  ctx->scores_active.clear();
  if (options.offload_hidden && !ctx->chunks.empty() && ctx->chunks[0].spilled) {
    res_.spill->PrefetchAsync(ctx->SpillKey(0));
  }
  if (ctx->prefix_len > 0) {
    // The prefix's keys and values for this layer, which every chunk reads.
    const WallTimer compute_timer;
    ForwardPrefix(config, view, &ctx->prefix, &*ctx->scratch);
    charge(compute_timer);
  }
  for (size_t ci = 0; ci < ctx->chunks.size(); ++ci) {
    Tensor hidden = TakeChunkHidden(res_, ctx, ci);
    if (options.offload_hidden && ci + 1 < ctx->chunks.size() && ctx->chunks[ci + 1].spilled) {
      res_.spill->PrefetchAsync(ctx->SpillKey(ci + 1));
    }
    const WallTimer compute_timer;
    LayerForward(config, view, ctx->seq_len, ctx->prefix_len, &hidden, &*ctx->scratch,
                 compute_pool);
    ScoreChunk(config, *res_.head, hidden, ctx->suffix_len(), &ctx->scores_active);
    charge(compute_timer);
    StowChunkHidden(res_, ctx, ci, std::move(hidden), !last_layer);
  }
}

void LayerLoop::ForwardGroup(std::span<RequestContext* const> group, size_t layer,
                             const AnyLayerView& view, bool last_layer,
                             ThreadPool* compute_pool) const {
  // The depth invariant: every context in the group must need exactly this
  // layer next. Layers are strictly sequential per request, so this is what
  // guarantees no request is ever forwarded outside its plan.
  for (RequestContext* ctx : group) {
    PRISM_CHECK_MSG(!ctx->done, "ForwardGroup on a finished context");
    PRISM_CHECK_EQ(ctx->next_layer, layer);
    if (layer == 0) {
      // The request's first layer is about to run (its weights are already
      // acquired): everything since admission — embed, queueing behind
      // batchmates, a cold layer-0 fetch — is its time-to-first-layer.
      ctx->result.stats.first_layer_ms = ctx->timer.ElapsedMillis();
    }
  }

  // Forward every grouped request's chunks through this layer, one request
  // after another: the pool's one parallel axis is the candidate blocks
  // inside each chunk's LayerForward, so even a lone request uses every
  // core. Results are bit-identical to the serial order.
  for (RequestContext* ctx : group) {
    ForwardOneLayer(ctx, view, last_layer, compute_pool);
  }
}

void LayerLoop::SettleGroup(std::span<RequestContext* const> group, size_t layer,
                            bool last_layer) const {
  // Between-layer bookkeeping and pruning, per request in admission order.
  for (RequestContext* ctx : group) {
    ctx->result.stats.candidate_layers += static_cast<int64_t>(ctx->active.size());
    ctx->result.stats.layers_until_done = layer + 1;
    ctx->next_layer = layer + 1;
    if (prune_.AfterLayer(ctx, layer, last_layer) || last_layer) {
      ctx->done = true;
    }
  }
}

}  // namespace prism
