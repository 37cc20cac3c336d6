// Staged execution pipeline for the PRISM engine.
//
// A rerank request is composed of four explicit stages operating on a
// per-request RequestContext:
//
//   ChunkPlanner ─► EmbedStage ─► LayerLoop ◄──► PruneStage
//    (geometry)     (lookup +      (forward +     (CV check, k-means,
//                    planted        settle one     compact survivors,
//                    signal)        layer)         finalize top-K)
//
// Every byte of mutable per-request state — hidden-state chunks, provisional
// scores, trace, stats, the activation scratch — lives in the context; the
// engine retains only shared immutable resources (weights, config, reader),
// bundled here as StageResources. The stages own no layer walk: the engine's
// layer pass (PrismCarouselPass in engine.cc) is the one driver that
// acquires each layer's weights and hands a group of contexts to
// LayerLoop::ForwardGroup/SettleGroup, so one weight fetch serves every
// request riding the pass (the paper's §3.3 global view, extended across
// requests), while pruning decisions stay per-request — results are
// bit-identical to serial execution regardless of batch size or thread
// count.
#ifndef PRISM_SRC_CORE_STAGES_H_
#define PRISM_SRC_CORE_STAGES_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/memory_tracker.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/core/pruner.h"
#include "src/model/embedding.h"
#include "src/model/layer.h"
#include "src/model/pair_encoder.h"
#include "src/model/weights.h"
#include "src/runtime/device.h"
#include "src/runtime/runner.h"
#include "src/storage/blob_file.h"
#include "src/storage/hidden_spill.h"

namespace prism {

struct PrismOptions {
  DeviceProfile device = NvidiaProfile();

  // §4.1 progressive cluster pruning.
  bool pruning = true;
  float dispersion_threshold = 0.35f;
  bool prune_winners = true;  // false → exact-rank mode (Discussion §7).
  int kmeans_max_k = 4;

  // §4.2 overlapped layer streaming (false → all layers resident, HF-style).
  bool streaming = true;

  // §4.3 chunked execution.
  bool chunked = true;
  size_t chunk_candidates = 0;  // 0 = plan from device.activation_budget.
  bool offload_hidden = false;  // Dynamic hidden-state offloading.

  // §4.4 embedding table caching (false → full table resident).
  bool embed_cache = true;
  double embed_cache_fraction = 0.10;
  // External embedding cache: when non-null and embed_cache is on, the
  // engine uses this externally-owned cache instead of building a private
  // one. The pointee must outlive the engine; it is internally
  // synchronised, so any number of engines may share it.
  EmbeddingCache* shared_embed_cache = nullptr;

  // Layer-blob storage precision; must match the checkpoint's tags. Reduced
  // tiers stream proportionally fewer SSD bytes per pass ("PRISM Quant" etc).
  Precision precision = Precision::kFp32;

  // Trace mode: records per-layer scores/clusters for every candidate and
  // disables pruning (used by the Fig-2 sparsity analysis).
  bool trace = false;

  uint64_t seed = 42;
};

// Per-layer record captured in trace mode only.
struct LayerTraceEntry {
  size_t layer = 0;
  size_t active = 0;
  double cv = 0.0;
  // Indexed by original candidate id; NaN when the candidate was inactive.
  std::vector<float> scores;
  // Cluster id per original candidate (-1 when unclustered/inactive).
  std::vector<int> clusters;
};

// Shared immutable engine resources handed to every stage. All pointees are
// owned by the engine and outlive any request; the mutable ones
// (EmbeddingCache, SpillPool, MemoryTracker) are internally synchronised so
// stages may touch them from concurrent requests.
struct StageResources {
  const ModelConfig* config = nullptr;
  const PrismOptions* options = nullptr;
  MemoryTracker* tracker = nullptr;
  BlobFileReader* reader = nullptr;
  EmbeddingSource* embedding = nullptr;
  EmbeddingCache* cache = nullptr;  // Null when embed_cache is off.
  const HeadWeights* head = nullptr;
  // Resident layer blobs when streaming is off (empty otherwise).
  const std::vector<std::vector<uint8_t>>* resident_layers = nullptr;
  SpillPool* spill = nullptr;  // Null unless offload_hidden.
};

// One group of candidates advancing through the layers together (§4.3).
struct ChunkState {
  std::vector<size_t> ids;       // Original candidate indices.
  std::optional<Tensor> hidden;  // Resident hidden states (unless spilled).
  bool spilled = false;
};

// All mutable state of one in-flight rerank request. Contexts are built by
// the engine (which assigns the engine-unique `id`), threaded through the
// stages, and torn down when the result is extracted. Nothing in here is
// shared between requests, so a batch of contexts can advance on separate
// threads without synchronisation.
struct RequestContext {
  RequestContext(const RerankRequest& req, uint64_t request_id)
      : request(&req), id(request_id) {}

  const RerankRequest* request;
  uint64_t id;

  // Geometry (ChunkPlanner). Every candidate is seq_len tokens; the first
  // prefix_len of them are the shared query prefix (SharedPrefixLen: causal
  // models only, else 0), forwarded once per layer for all candidates, and
  // the other suffix_len() are the candidate's own. Chunks, spill and
  // compaction hold suffix rows only.
  size_t seq_len = 0;
  size_t prefix_len = 0;
  size_t chunk_cand = 0;
  size_t suffix_len() const { return seq_len - prefix_len; }

  // Forwarding state.
  std::vector<PairInput> pairs;
  Tensor prefix;  // [prefix_len, hidden] shared prefix hidden states; never spilled.
  std::vector<ChunkState> chunks;
  std::vector<size_t> active;        // Original ids still computing.
  std::vector<float> scores_active;  // Scores of `active`, last layer run.
  std::vector<std::pair<float, size_t>> finalized;  // (score, id) selected.
  size_t remaining_k = 0;
  bool terminated = false;  // Pruning stopped the forward pass early.
  bool done = false;        // No more layers to run (terminated or exhausted).

  // Set at planning: the engine's `pruning` option, off for RerankUnpruned.
  bool pruning = true;
  PrunerOptions pruner_options;
  std::optional<LayerScratch> scratch;
  std::vector<LayerTraceEntry> trace;
  RerankResult result;
  WallTimer timer;

  // Depth tag: the next layer this context must be forwarded through.
  // LayerLoop::ForwardGroup CHECKs it against the arriving layer, so a context
  // can never run a layer outside its plan (layers are strictly sequential
  // from 0 until `done`). The carousel groups co-resident contexts by this
  // tag.
  size_t next_layer = 0;

  size_t n() const { return request->docs.size(); }

  // Spill keys are namespaced by request id so concurrent requests sharing
  // one SpillPool never collide.
  int64_t SpillKey(size_t chunk_index) const {
    return static_cast<int64_t>(id * kSpillKeysPerRequest + chunk_index);
  }
  static constexpr uint64_t kSpillKeysPerRequest = uint64_t{1} << 20;
};

// Moves a chunk's hidden tensor out of the context (unspilling it from disk
// when parked there) / stows it back (spilling when offload is on and more
// layers remain). Shared by LayerLoop and PruneStage's compaction.
Tensor TakeChunkHidden(const StageResources& res, RequestContext* ctx, size_t chunk_index);
void StowChunkHidden(const StageResources& res, RequestContext* ctx, size_t chunk_index,
                     Tensor hidden, bool more_layers);

// Drops every chunk the context still has parked in the spill pool (no-op
// without one). Called by PruneStage::Finalize and by carousel tickets that
// are abandoned mid-flight, so neither path can leak pool entries.
void ReleaseSpilledChunks(const StageResources& res, RequestContext* ctx);

// Stage 1 — geometry. Takes a request that passed ValidateRequest (it
// CHECKs the basics again), chooses the common sequence length, plans the
// chunk size against the activation budget (§4.3), builds the initial
// chunks/active set, and allocates the per-request scratch.
class ChunkPlanner {
 public:
  explicit ChunkPlanner(const StageResources& res) : res_(res) {}

  // Chunks a request is split into, at least, when hidden states are
  // offloaded: the reload and spill around each layer that no compute hides
  // are one chunk's hidden state each, so a finer split exposes less I/O.
  static constexpr size_t kOffloadMinChunks = 8;

  // Chunk size the planner picks for `n` candidates at `seq_len`, of which
  // `prefix_len` rows are shared (a chunk holds the other seq_len −
  // prefix_len rows per candidate): the largest count whose scratch fits the
  // activation budget (and, with offload_hidden, at most
  // ⌈n / kOffloadMinChunks⌉), floored at 2 to keep the compute window wide
  // enough for I/O overlap (min(2, n) for tiny requests). `fan_out` is the
  // LayerForward block count the scratch must hold attention tiles for: the
  // compute pool's thread count, or 1 on the serial path.
  size_t PlanCandidates(size_t n, size_t seq_len, size_t prefix_len = 0,
                        size_t fan_out = 1) const;

  static std::vector<ChunkState> Partition(const std::vector<size_t>& ids, size_t chunk_cand);

  void Begin(RequestContext* ctx, size_t fan_out = 1) const;

 private:
  StageResources res_;
};

// Stage 2 — embedding. Builds every pair input first so the embedding cache
// can batch-load the request's unique missing tokens in one device read
// (§4.5), then embeds the shared prefix once and each chunk's suffix rows,
// and stows the chunks.
class EmbedStage {
 public:
  explicit EmbedStage(const StageResources& res) : res_(res) {}

  void Run(RequestContext* ctx) const;

 private:
  // The [max_seq, hidden] position table (MakePositionTable), built once by
  // the engine's first embed. Building it in the constructor would add
  // about a third to a small engine's construction time.
  const Tensor& Positions() const;

  StageResources res_;
  mutable std::once_flag positions_once_;
  mutable Tensor positions_;
};

// Stage 4 — pruning. Consumes the provisional scores a layer produced:
// records them into the result, handles trace mode, runs DecidePrune, and on
// a trigger finalizes/drops/compacts (the paper's shrinking monolithic
// batch, Fig 3: BS 20 → 16 → 10). Finalize() fills the top-K once the layer
// loop is over.
class PruneStage {
 public:
  explicit PruneStage(const StageResources& res) : res_(res) {}

  // Processes one completed layer; returns true when the request terminated
  // early (no further layers needed).
  bool AfterLayer(RequestContext* ctx, size_t layer, bool last_layer) const;

  void Finalize(RequestContext* ctx) const;

 private:
  StageResources res_;
};

// Stage 3 — one layer step over a depth-tagged group of contexts. The driver
// (the engine's layer pass, or an instrumented copy of it) owns the weight
// stream; LayerLoop forwards the group through one already-acquired layer
// and runs the between-layer bookkeeping. Contexts are forwarded one after
// another, each its shared prefix first (ForwardPrefix) and then its chunks;
// with a `compute_pool`, each chunk's LayerForward splits its candidates
// across the pool's threads.
class LayerLoop {
 public:
  explicit LayerLoop(const StageResources& res) : res_(res), prune_(res) {}

  // One layer step = ForwardGroup (needs the weights) then SettleGroup
  // (does not): drivers release the layer's streamer buffer in between, so
  // the prefetcher pulls the next blob while pruning runs.
  //
  // ForwardGroup forwards every context in `group` through `layer` (weights
  // already parsed into `view`). CHECKs that each context's next_layer tag
  // equals `layer` — no context is ever forwarded through a layer outside
  // its plan. SettleGroup runs the between-layer prune bookkeeping, marking
  // contexts done when they terminate or `last_layer` is set.
  void ForwardGroup(std::span<RequestContext* const> group, size_t layer,
                    const AnyLayerView& view, bool last_layer, ThreadPool* compute_pool) const;
  void SettleGroup(std::span<RequestContext* const> group, size_t layer, bool last_layer) const;

 private:
  void ForwardOneLayer(RequestContext* ctx, const AnyLayerView& view, bool last_layer,
                       ThreadPool* compute_pool) const;

  StageResources res_;
  PruneStage prune_;
};

}  // namespace prism

#endif  // PRISM_SRC_CORE_STAGES_H_
