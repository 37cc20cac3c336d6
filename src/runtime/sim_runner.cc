#include "src/runtime/sim_runner.h"

#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace prism {

namespace {

// Virtual cost of one engine pass (layer-streaming sweep spin-up) and the
// marginal cost of each request sharing it, in clock milliseconds.
constexpr double kPassMs = 8.0;
constexpr double kPerRequestMs = 2.0;

void AppendBytes(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

template <typename T>
void AppendPod(std::string* out, T value) {
  AppendBytes(out, &value, sizeof(value));
}

// Exact binary identity of everything that determines the engine's ranking.
// priority/deadline_ms are scheduler concerns — they never reach the model —
// so requests differing only in them share a memo entry.
std::string Fingerprint(const RerankRequest& request) {
  std::string key;
  AppendPod(&key, request.k);
  AppendPod(&key, request.query.size());
  AppendBytes(&key, request.query.data(), request.query.size() * sizeof(uint32_t));
  AppendPod(&key, request.docs.size());
  for (const std::vector<uint32_t>& doc : request.docs) {
    AppendPod(&key, doc.size());
    AppendBytes(&key, doc.data(), doc.size() * sizeof(uint32_t));
  }
  AppendPod(&key, request.planted_r.size());
  AppendBytes(&key, request.planted_r.data(), request.planted_r.size() * sizeof(float));
  return key;
}

// Host-measured timings are the one nondeterministic part of a result;
// everything else (ranking, work stats) is a pure function of the request.
void ScrubTimings(RerankResult* result) {
  result->stats.latency_ms = 0.0;
  result->stats.embed_ms = 0.0;
  result->stats.compute_ms = 0.0;
  result->stats.io_stall_ms = 0.0;
  result->stats.queue_wait_ms = 0.0;
  result->stats.first_layer_ms = 0.0;
}

// One simulated request riding a synthetic carousel: it "needs" exactly the
// layers its serial plan ran and carries the memoized result to the end.
class SimTicket : public CarouselTicket {
 public:
  SimTicket(RerankResult result, size_t n_layers) : result_(std::move(result)) {
    // A failed memoized run reports no layers; retire the ticket at the
    // first step so the error answers immediately.
    layers_needed_ = result_.status.ok() ? result_.stats.layers_until_done : 1;
    if (layers_needed_ == 0 || layers_needed_ > n_layers) {
      layers_needed_ = n_layers;
    }
  }

  size_t next_layer() const override { return next_layer_; }
  bool done() const override { return next_layer_ >= layers_needed_; }
  RerankResult TakeResult() override { return std::move(result_); }

  void Advance() { ++next_layer_; }

 private:
  RerankResult result_;
  size_t layers_needed_ = 0;
  size_t next_layer_ = 0;
};

class SimCarouselPass : public CarouselPass {
 public:
  explicit SimCarouselPass(SimulatedRunner* runner) : runner_(runner) {}

  size_t n_layers() const override { return runner_->n_layers(); }

  std::vector<std::unique_ptr<CarouselTicket>> AdmitBatch(
      std::span<const RerankRequest* const> requests, ThreadPool* compute_pool) override {
    (void)compute_pool;
    std::vector<std::unique_ptr<CarouselTicket>> tickets;
    tickets.reserve(requests.size());
    for (const RerankRequest* request : requests) {
      tickets.push_back(
          std::make_unique<SimTicket>(runner_->Cached(*request), runner_->n_layers()));
    }
    return tickets;
  }

  void Step(size_t layer, std::span<CarouselTicket* const> group,
            ThreadPool* compute_pool) override {
    (void)compute_pool;
    (void)layer;
    if (group.empty()) {
      return;  // A skipped position costs nothing (the real pass prefetch-skips).
    }
    // The pass's affine cost, spread evenly over its layer steps.
    const double n = static_cast<double>(runner_->n_layers());
    runner_->clock()->SleepFor((kPassMs + kPerRequestMs * group.size()) / n);
    for (CarouselTicket* ticket : group) {
      static_cast<SimTicket*>(ticket)->Advance();
    }
  }

  void SkipToNextCycle() override {}

 private:
  SimulatedRunner* runner_;
};

}  // namespace

SimulatedRunner::SimulatedRunner(CarouselRunner* target, size_t n_layers, Clock* clock)
    : target_(target), n_layers_(n_layers), clock_(ResolveClock(clock)) {
  PRISM_CHECK_GT(n_layers_, 0u);
}

RerankResult SimulatedRunner::Cached(const RerankRequest& request) {
  const std::string key = Fingerprint(request);
  {
    MutexLock lock(mu_);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      return it->second;
    }
  }
  // Real engine pass at a frozen virtual instant (compute never advances
  // virtual time — the computing thread is runnable throughout).
  RerankResult result = target_->Rerank(request);
  ScrubTimings(&result);
  MutexLock lock(mu_);
  return memo_.emplace(key, std::move(result)).first->second;
}

RerankResult SimulatedRunner::Rerank(const RerankRequest& request) {
  RerankResult result = Cached(request);
  const double charge = kPassMs + kPerRequestMs;
  clock_->SleepFor(charge);
  result.stats.latency_ms = charge;
  return result;
}

std::unique_ptr<CarouselPass> SimulatedRunner::BeginCarousel() {
  return std::make_unique<SimCarouselPass>(this);
}

size_t SimulatedRunner::memo_size() const {
  MutexLock lock(mu_);
  return memo_.size();
}

}  // namespace prism
