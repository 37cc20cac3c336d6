// SimulatedRunner: the service-cost model for discrete-event simulation.
//
// Under a SimClock, real compute does not consume virtual time (a computing
// thread is runnable, and the clock never advances past a runnable thread)
// — so an engine pass would look instantaneous to the simulation. The
// SimulatedRunner wraps the real CarouselRunner and charges a deterministic
// virtual service time for every pass on the injected clock, while still
// producing the engine's exact rankings:
//
//   - The first time a unique request (query, docs, planted_r, k) is seen,
//     it runs through the real engine — at a frozen virtual instant — and
//     the result is memoized by its RequestKey (src/runtime/runner.h), so
//     requests differing only in priority or deadline share an entry. Replays
//     (a Zipf-popular workload re-asks the same queries constantly) are
//     served from the memo without burning wall time, which is what lets a
//     10k-request sweep finish in seconds.
//   - Every pass charges an affine virtual cost on the clock: 8 ms per
//     pass + 2 ms per request aboard. A carousel spreads that
//     cost over its layer steps; a lone Rerank pays it at once. Timing
//     fields of memoized results are scrubbed; work stats (layers,
//     candidates, bytes) replay verbatim — they are deterministic outputs of
//     the engine, not of the host.
//
// The carousel pass is synthetic: tickets walk the layer indices their
// serial plan ran (layers_until_done, from the memoized result) and yield
// the memoized result at the end — valid because the engine's carousel is
// proven bit-identical to serial execution (carousel_test).
#ifndef PRISM_SRC_RUNTIME_SIM_RUNNER_H_
#define PRISM_SRC_RUNTIME_SIM_RUNNER_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/annotations.h"
#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/runtime/runner.h"

namespace prism {

class SimulatedRunner : public CarouselRunner {
 public:
  // `n_layers` spreads a pass's cost over carousel steps; pass the model's
  // layer count. The target must outlive the runner.
  SimulatedRunner(CarouselRunner* target, size_t n_layers, Clock* clock);

  RerankResult Rerank(const RerankRequest& request) override;
  std::unique_ptr<CarouselPass> BeginCarousel() override;
  std::string name() const override { return "sim:" + target_->name(); }

  size_t n_layers() const { return n_layers_; }
  Clock* clock() const { return clock_; }

  // The engine's result for this request, timing fields scrubbed; memoized.
  // Public for the synthetic carousel pass; harmless to call directly (it
  // charges no virtual time).
  RerankResult Cached(const RerankRequest& request);

 private:
  CarouselRunner* target_;
  size_t n_layers_;
  Clock* clock_;
  Mutex mu_;
  std::unordered_map<RequestKey, RerankResult, RequestKeyHash> memo_ PRISM_GUARDED_BY(mu_);
};

}  // namespace prism

#endif  // PRISM_SRC_RUNTIME_SIM_RUNNER_H_
