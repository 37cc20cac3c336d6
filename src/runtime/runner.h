// Common reranker-runner interface shared by the baselines and PRISM.
//
// Contract:
//  - Rerank() is synchronous: it returns only when `result.status` and, on
//    success, `result.topk` (best first) and `result.scores` (NaN for
//    candidates pruned before scoring) are final. When `status.ok()`,
//    `topk.size() == min(request.k, request.docs.size())`; when it is not
//    (an injected fault, a shed deadline), topk is empty and scores carry
//    no ranking (empty or all-NaN) — callers must check `status` before
//    touching either.
//  - Determinism: the same request against the same checkpoint and options
//    yields bit-identical topk/scores; only the timing fields of
//    RerankStats may vary between runs.
//  - Threading: implementations are not required to be thread-safe;
//    serialise calls externally (RerankService's SerialScheduler) unless an
//    implementation documents stronger guarantees. PrismEngine does:
//    concurrent Rerank calls and carousel passes are safe, and sharing a
//    pass preserves the per-request determinism above.
#ifndef PRISM_SRC_RUNTIME_RUNNER_H_
#define PRISM_SRC_RUNTIME_RUNNER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/dataset.h"
#include "src/model/config.h"

namespace prism {

class ThreadPool;

struct RerankRequest {
  std::vector<uint32_t> query;
  std::vector<std::vector<uint32_t>> docs;
  std::vector<float> planted_r;  // One per doc (see pair_encoder.h).
  size_t k = 5;

  // Admission class: higher-priority requests are dispatched first
  // (priority-then-FIFO, see RequestQueue in src/core/scheduler.h). 0 is the
  // default class; runners themselves ignore the field.
  int priority = 0;

  // Time budget measured from admission (Scheduler::Submit). <= 0 means no
  // deadline. A request still queued when its budget expires is shed: it
  // returns a kDeadlineExceeded result without burning an engine pass.
  double deadline_ms = 0.0;

  static RerankRequest FromQuery(const RerankQuery& q, size_t k);
};

// What a request's ranking is a function of: every field but the admission
// ones (priority, deadline_ms). Equal keys get bit-identical results from the
// same runner (the determinism contract above), so the result cache and the
// simulator's memo both index results by it. planted_r is held as its bit
// patterns: keys are equal exactly when a runner reads the same bytes, and a
// key always equals itself (a NaN would not).
struct RequestKey {
  std::vector<uint32_t> query;
  std::vector<std::vector<uint32_t>> docs;
  std::vector<uint32_t> planted_r_bits;
  size_t k = 0;

  explicit RequestKey(const RerankRequest& request);
  bool operator==(const RequestKey& other) const = default;

  // The MixSeed chain over the query tokens alone; equality settles the
  // rest. Requests sharing a query share a hash.
  uint64_t Hash() const;
};

struct RequestKeyHash {
  size_t operator()(const RequestKey& key) const { return key.Hash(); }
};

// Checks `request` against the model before any engine work: k > 0, one
// planted_r per doc, no empty doc, and every query and doc token id below
// config.vocab_size. Returns kInvalidArgument naming the first violation.
// RerankService and PrismEngine's layer pass (at admission) answer a
// malformed request with this status instead of aborting the process.
Status ValidateRequest(const ModelConfig& config, const RerankRequest& request);

struct RerankStats {
  double latency_ms = 0.0;
  double embed_ms = 0.0;
  // Wall time of the request's layer forwards and scoring. On the carousel
  // each layer splits across the compute pool, so this falls with the
  // pool's width while the CPU time spent stays the same.
  double compute_ms = 0.0;
  double io_stall_ms = 0.0;   // Compute-visible I/O waits.
  // Admission latency: time between entering a scheduler's queue and the
  // first engine work on the request's behalf (planning/embedding). Filled
  // by the schedulers; 0 for direct engine use.
  double queue_wait_ms = 0.0;
  // Time from engine admission until this request's first layer forward
  // begins — embed plus the wait for layer 0's weights (a cold streamer
  // start shows up here; a carousel wrap's warm prefetch does not).
  // queue_wait_ms + first_layer_ms is the request's time-to-first-layer.
  double first_layer_ms = 0.0;
  int64_t candidate_layers = 0;  // Σ over layers of active candidates (work).
  int64_t bytes_streamed = 0;
  size_t layers_until_done = 0;  // Last layer index executed + 1.
};

struct RerankResult {
  // Ok for a served request. kDeadlineExceeded when the request was shed
  // before reaching an engine, kIoError (etc.) when a device fault surfaced;
  // topk/scores carry no ranking in either failure case.
  Status status;
  std::vector<size_t> topk;    // Candidate indices, best first.
  std::vector<float> scores;   // Score per candidate; NaN if pruned early.
  RerankStats stats;
};

class Runner {
 public:
  virtual ~Runner() = default;
  virtual RerankResult Rerank(const RerankRequest& request) = 0;
  virtual std::string name() const = 0;
};

// One request riding a carousel pass (see CarouselPass). A ticket is the
// per-request handle the CarouselScheduler holds between admission and exit:
// it reports which layer the request needs next, whether the request has
// finished (terminated by pruning, ran out of layers, or failed), and —
// exactly once, after done() — yields the final RerankResult.
//
// Threading: tickets are confined to the thread driving their pass; only
// Step's internal compute fan-out is parallel. A ticket must not outlive its
// pass. Destroying a ticket before TakeResult abandons the request: the
// implementation must release any per-request resources it parked (e.g.
// spilled hidden-state chunks), so an abandoned ticket never leaks.
class CarouselTicket {
 public:
  virtual ~CarouselTicket() = default;

  // The next layer this request must be forwarded through. Meaningless once
  // done().
  virtual size_t next_layer() const = 0;
  virtual bool done() const = 0;

  // Finalizes and returns the request's result (status, topk, scores,
  // stats). Call exactly once, only after done().
  virtual RerankResult TakeResult() = 0;
};

// A cyclic layer pass shared by every in-flight request — the layer
// carousel. The driver admits requests, then calls Step for layers
// 0, 1, …, L-1, 0, 1, … in order; at each arriving layer it passes the group
// of tickets whose next_layer() matches. One weight fetch per step serves
// the whole group, and the implementation's prefetcher keeps the next
// layers warm across the wrap, so a pass that stays populated never pays a
// cold start between cycles (unlike one terminating pass per batch).
//
// Threading: a pass and its tickets belong to one driver thread; Step may
// fan compute out across `compute_pool` (the engine splits each request's
// candidates into blocks there).
class CarouselPass {
 public:
  virtual ~CarouselPass() = default;

  virtual size_t n_layers() const = 0;

  // Admits a cycle boundary's joiners: plans and embeds each request, and
  // returns one ticket per request (tickets[i] for requests[i]) that needs
  // layer 0 next. Implementations may fan the per-request planning and
  // embedding out across `compute_pool` (the engine does — a boundary with N
  // joiners should not serialize N embeds while the carousel stalls). A
  // request the pass rejects (malformed) gets a ticket that is already done:
  // drivers never step it, and TakeResult returns the error status. Admit
  // only at a cycle boundary (before stepping layer 0).
  virtual std::vector<std::unique_ptr<CarouselTicket>> AdmitBatch(
      std::span<const RerankRequest* const> requests, ThreadPool* compute_pool) = 0;

  // Forwards every ticket in `group` through `layer` (all must report
  // next_layer() == layer and not be done). The group may be empty — the
  // pass still consumes the scheduled position so the walk stays aligned.
  // Layers must be stepped in cyclic order from 0.
  virtual void Step(size_t layer, std::span<CarouselTicket* const> group,
                    ThreadPool* compute_pool) = 0;

  // Abandons the rest of the current cycle and realigns the walk at the next
  // cycle's layer 0 (used when every resident request exited mid-cycle but
  // new ones are queued — their layers need not be fetched).
  virtual void SkipToNextCycle() = 0;
};

// A runner that can drive the layer carousel (CarouselScheduler). The
// scheduler calls BeginCarousel once per busy period; the pass must keep
// results bit-identical to serial Rerank per request — only fetch sharing
// and admission timing may differ. Tests slot a fault-injection wrapper
// (tests/fault_injection.h) between the scheduler and the real engine
// through this interface.
class CarouselRunner : public Runner {
 public:
  virtual std::unique_ptr<CarouselPass> BeginCarousel() = 0;
};

}  // namespace prism

#endif  // PRISM_SRC_RUNTIME_RUNNER_H_
