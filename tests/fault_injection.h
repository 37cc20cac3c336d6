// Fault-injection test doubles.
//
// FlakyRunner slots between a scheduler and the real engine (via
// ServiceOptions::runner_override or a directly-constructed scheduler) and
// fails selected requests with an injected kIoError before they reach
// the wrapped runner — modelling a device read failure surfaced per-request.
// Failures follow either a deterministic sequence (request ordinal n fails
// iff fail_sequence[n]) or a seeded Bernoulli draw, so every test run is
// reproducible. The tests built on it pin down the error contract: a failing
// request must not poison its batchmates, wedge the dispatcher, or leak
// SpillPool entries.
//
// The carousel composes through the same seam: BeginCarousel wraps the inner
// pass, and a doomed request's ticket fails during its first Step — i.e.
// mid-cycle, while the carousel is revolving with other requests resident —
// abandoning the inner ticket so the engine releases its parked state.
#ifndef PRISM_TESTS_FAULT_INJECTION_H_
#define PRISM_TESTS_FAULT_INJECTION_H_

#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/runtime/runner.h"

namespace prism {

struct FaultPlan {
  // While the ordinal is inside fail_sequence, it decides; afterwards (or
  // when empty) each request fails with fail_probability via `seed`.
  std::vector<bool> fail_sequence;
  double fail_probability = 0.0;
  uint64_t seed = 0xFA17;
};

class FlakyRunner : public CarouselRunner {
 public:
  FlakyRunner(CarouselRunner* inner, FaultPlan plan)
      : inner_(inner), plan_(std::move(plan)), rng_(plan_.seed) {}

  // Serial seam: a failing request gets an error result carrying its
  // ordinal; any other is forwarded to the wrapped runner.
  RerankResult Rerank(const RerankRequest& request) override {
    if (const auto ordinal = NextFailure(); ordinal.has_value()) {
      return InjectedFailure(*ordinal, request.docs.size());
    }
    return inner_->Rerank(request);
  }

  // Carousel seam: wraps the inner runner's pass. Doomed requests (decided
  // at admission, same plan/ordinal accounting as the serial path) carry a
  // live inner ticket until their first Step, where the injected error
  // fires: the wrapper abandons the inner ticket mid-cycle — exercising the
  // engine's abandoned-ticket cleanup — and surfaces kIoError to exactly
  // that caller. Survivors forward untouched.
  std::unique_ptr<CarouselPass> BeginCarousel() override {
    return std::make_unique<FlakyCarouselPass>(this, inner_->BeginCarousel());
  }

  std::string name() const override { return "flaky(" + inner_->name() + ")"; }

  size_t injected_failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }
  size_t requests_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ordinal_;
  }

 private:
  class FlakyCarouselTicket : public CarouselTicket {
   public:
    FlakyCarouselTicket(std::unique_ptr<CarouselTicket> inner, size_t n_docs,
                        std::optional<size_t> fail_ordinal)
        : inner_(std::move(inner)), n_docs_(n_docs), fail_ordinal_(fail_ordinal) {}

    size_t next_layer() const override { return failed_ ? 0 : inner_->next_layer(); }
    bool done() const override { return failed_ || inner_->done(); }
    RerankResult TakeResult() override {
      return failed_ ? std::move(error_) : inner_->TakeResult();
    }

    bool doomed() const { return fail_ordinal_.has_value() && !failed_; }
    CarouselTicket* inner() { return inner_.get(); }

    // Fires the injected fault: the inner ticket is abandoned (its engine
    // must release any parked per-request state) and this ticket finishes
    // with an error result.
    void Fail() {
      error_ = InjectedFailure(*fail_ordinal_, n_docs_);
      failed_ = true;
      inner_.reset();
    }

   private:
    std::unique_ptr<CarouselTicket> inner_;
    size_t n_docs_;
    std::optional<size_t> fail_ordinal_;
    bool failed_ = false;
    RerankResult error_;
  };

  class FlakyCarouselPass : public CarouselPass {
   public:
    FlakyCarouselPass(FlakyRunner* owner, std::unique_ptr<CarouselPass> inner)
        : owner_(owner), inner_(std::move(inner)) {}

    size_t n_layers() const override { return inner_->n_layers(); }

    std::unique_ptr<CarouselTicket> Admit(const RerankRequest& request) override {
      return std::make_unique<FlakyCarouselTicket>(inner_->Admit(request),
                                                   request.docs.size(),
                                                   owner_->NextFailure());
    }

    std::vector<std::unique_ptr<CarouselTicket>> AdmitBatch(
        std::span<const RerankRequest* const> requests, ThreadPool* compute_pool) override {
      // Draw failure ordinals in request order first, then let the inner
      // pass admit — possibly with its embeds fanned out.
      std::vector<std::optional<size_t>> ordinals;
      ordinals.reserve(requests.size());
      for (size_t i = 0; i < requests.size(); ++i) {
        ordinals.push_back(owner_->NextFailure());
      }
      std::vector<std::unique_ptr<CarouselTicket>> inner =
          inner_->AdmitBatch(requests, compute_pool);
      std::vector<std::unique_ptr<CarouselTicket>> tickets;
      tickets.reserve(inner.size());
      for (size_t i = 0; i < inner.size(); ++i) {
        tickets.push_back(std::make_unique<FlakyCarouselTicket>(
            std::move(inner[i]), requests[i]->docs.size(), ordinals[i]));
      }
      return tickets;
    }

    void Step(size_t layer, std::span<CarouselTicket* const> group,
              ThreadPool* compute_pool) override {
      std::vector<CarouselTicket*> forwarded;
      forwarded.reserve(group.size());
      for (CarouselTicket* ticket : group) {
        auto* flaky = static_cast<FlakyCarouselTicket*>(ticket);
        if (flaky->doomed()) {
          flaky->Fail();
        } else {
          forwarded.push_back(flaky->inner());
        }
      }
      // Step the inner pass even when every grouped request just failed —
      // the walk must stay aligned for the other residents.
      inner_->Step(layer, forwarded, compute_pool);
    }

    void SkipToNextCycle() override { inner_->SkipToNextCycle(); }

   private:
    FlakyRunner* owner_;
    std::unique_ptr<CarouselPass> inner_;
  };

  // The error result a doomed request answers with: kIoError naming its
  // ordinal, no topk, all-NaN scores.
  static RerankResult InjectedFailure(size_t ordinal, size_t n_docs) {
    RerankResult result;
    result.status = Status::IoError("injected device read failure (request #" +
                                    std::to_string(ordinal) + ")");
    result.scores.assign(n_docs, std::numeric_limits<float>::quiet_NaN());
    return result;
  }

  // Returns this request's ordinal if it should fail, nullopt otherwise.
  std::optional<size_t> NextFailure() {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t ordinal = ordinal_++;
    bool fail;
    if (ordinal < plan_.fail_sequence.size()) {
      fail = plan_.fail_sequence[ordinal];
    } else {
      fail = rng_.NextDouble() < plan_.fail_probability;
    }
    if (!fail) {
      return std::nullopt;
    }
    ++failures_;
    return ordinal;
  }

  CarouselRunner* inner_;
  FaultPlan plan_;
  mutable std::mutex mu_;
  Rng rng_;
  size_t ordinal_ = 0;
  size_t failures_ = 0;
};

}  // namespace prism

#endif  // PRISM_TESTS_FAULT_INJECTION_H_
