#include "src/core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace prism {

RerankResult MakeShedResult(double deadline_ms, double waited_ms) {
  RerankResult result;
  result.status = Status::DeadlineExceeded(
      "request shed: waited " + std::to_string(waited_ms) + " ms against a " +
      std::to_string(deadline_ms) + " ms deadline");
  result.stats.latency_ms = waited_ms;
  // A shed request's entire life was queue wait — it never reached an
  // engine. Both schedulers shed through here (SerialScheduler's
  // inline acquisition path and the RequestQueue expiry path alike), so the
  // admission-latency accounting stays exact under overload.
  result.stats.queue_wait_ms = waited_ms;
  return result;
}

RerankResult SerialScheduler::Submit(const RerankRequest& request) {
  const double arrived_ms = clock_->NowMs();
  mu_.Lock();
  const uint64_t ticket = next_ticket_++;
  while (now_serving_ != ticket) {
    cv_->Wait(mu_);
  }
  // The budget covers time spent queueing for the runner: if it ran out
  // while other requests held it, answer cheaply instead of running.
  const double waited_ms = clock_->NowMs() - arrived_ms;
  if (request.deadline_ms > 0.0 && waited_ms >= request.deadline_ms) {
    ++now_serving_;  // Pass the turn on to the next ticket.
    mu_.Unlock();
    cv_->NotifyAll();
    return MakeShedResult(request.deadline_ms, waited_ms);
  }
  mu_.Unlock();
  RerankResult result = runner_->Rerank(request);
  result.stats.queue_wait_ms = waited_ms;
  mu_.Lock();
  ++now_serving_;
  mu_.Unlock();
  // Every waiter re-checks its own ticket; only the next one proceeds.
  cv_->NotifyAll();
  return result;
}

RequestQueue::RequestQueue(Clock* clock)
    : clock_(ResolveClock(clock)), cv_(clock_->MakeCondVar()) {}

RequestQueue::~RequestQueue() = default;

std::future<RerankResult> RequestQueue::Push(const RerankRequest& request) {
  // Stamp at arrival: the deadline countdown starts now.
  const double admitted_ms = clock_->NowMs();
  Pending pending;
  pending.request = &request;
  pending.priority = request.priority;
  pending.admitted_ms = admitted_ms;
  if (request.deadline_ms > 0.0) {
    pending.has_deadline = true;
    pending.deadline_at_ms = admitted_ms + request.deadline_ms;
  }
  std::future<RerankResult> future = pending.promise.get_future();
  {
    MutexLock lock(mu_);
    PRISM_CHECK_MSG(!closed_, "Push after Close");
    pending.ticket = next_ticket_++;
    pending.tag = epoch_;
    InsertOrdered(std::move(pending));
  }
  cv_->NotifyOne();
  return future;
}

void RequestQueue::InsertOrdered(Pending pending) {
  // Insert before the first entry that outranks it, scanning from the back:
  // pushes arrive in ticket order, so the common single-priority case is
  // O(1), and equal priorities keep ticket (FIFO) order.
  auto pos = ordered_.end();
  while (pos != ordered_.begin()) {
    const Pending& prev = *std::prev(pos);
    if (prev.priority > pending.priority ||
        (prev.priority == pending.priority && prev.ticket < pending.ticket)) {
      break;
    }
    --pos;
  }
  ordered_.insert(pos, std::move(pending));
}

std::vector<RequestQueue::Pending> RequestQueue::DrainPass(size_t max_batch,
                                                           std::vector<Pending>* shed) {
  MutexLock lock(mu_);
  // Shed every expired entry — wherever it sits in the order; a
  // low-priority request can expire behind higher classes.
  const double now_ms = clock_->NowMs();
  for (auto it = ordered_.begin(); it != ordered_.end();) {
    if (it->ExpiredAt(now_ms)) {
      shed->push_back(std::move(*it));
      it = ordered_.erase(it);
    } else {
      ++it;
    }
  }
  std::vector<Pending> batch;
  const size_t take = std::min(max_batch, ordered_.size());
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(ordered_.front()));
    ordered_.pop_front();
  }
  if (!batch.empty()) {
    ++epoch_;  // An admission event.
  }
  return batch;
}

void RequestQueue::AnswerShed(std::vector<Pending> shed) {
  // Fulfil shed promises (set_value wakes the caller).
  for (Pending& pending : shed) {
    const double waited_ms = clock_->NowMs() - pending.admitted_ms;
    clock_->PreWake();
    pending.promise.set_value(MakeShedResult(pending.request->deadline_ms, waited_ms));
  }
}

std::vector<RequestQueue::Pending> RequestQueue::Pop(size_t max_batch, double timeout_ms) {
  PRISM_CHECK_GE(timeout_ms, 0.0);
  PRISM_CHECK_MSG(max_batch > 0 || timeout_ms == 0.0, "a waiting pop needs room for a request");
  const double give_up_ms = clock_->NowMs() + timeout_ms;
  for (;;) {
    bool gave_up = false;
    if (timeout_ms > 0.0) {
      MutexLock lock(mu_);
      while (!closed_ && !HasWorkLocked()) {
        if (std::isinf(timeout_ms)) {
          cv_->Wait(mu_);
        } else if (!cv_->WaitUntil(mu_, give_up_ms)) {
          break;  // Deadline reached; re-check the condition below.
        }
      }
      gave_up = !closed_ && !HasWorkLocked();
    }
    // Let every producer active at this instant land its push before the
    // drain (a no-op on the wall clock): batch composition becomes a pure
    // function of the virtual arrival schedule, not host thread timing. A
    // wait that gave up with nothing queued drains without the yield.
    if (!gave_up) {
      clock_->YieldUntilQuiescent();
    }
    std::vector<Pending> shed;
    std::vector<Pending> batch = DrainPass(max_batch, &shed);
    AnswerShed(std::move(shed));
    // A 0 timeout is always past its give-up instant here.
    if (!batch.empty() || gave_up || clock_->NowMs() >= give_up_ms) {
      return batch;
    }
    MutexLock lock(mu_);
    if (closed_ && !HasWorkLocked()) {
      return {};  // Closed and drained.
    }
    // Woken by Close, or everything pending was shed: wait again for real
    // work within the window.
  }
}

void RequestQueue::Close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  cv_->NotifyAll();
}

size_t RequestQueue::size() const {
  MutexLock lock(mu_);
  return ordered_.size();
}

uint64_t RequestQueue::epoch() const {
  MutexLock lock(mu_);
  return epoch_;
}

CarouselScheduler::CarouselScheduler(CarouselRunner* runner, size_t max_inflight,
                                     size_t compute_threads, double linger_ms, Clock* clock)
    : runner_(runner),
      max_inflight_(max_inflight),
      linger_ms_(std::max(0.0, linger_ms)),
      clock_(ResolveClock(clock)),
      queue_(clock) {
  PRISM_CHECK_GT(max_inflight_, 0u);
  if (compute_threads == 0) {
    // At least one thread per carousel slot: requests spend much of their
    // layer time waiting on the (simulated) device, so oversubscribing a
    // small core count still overlaps those waits across the residents.
    compute_threads = std::max<size_t>(std::thread::hardware_concurrency(), max_inflight_);
  }
  compute_pool_ = std::make_unique<ThreadPool>(compute_threads);
  // Announce the dispatcher before it exists: a SimClock must not advance
  // past tags scheduled "now" while the dispatcher thread is still starting.
  clock_->ExpectParticipants(1);
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

CarouselScheduler::~CarouselScheduler() {
  queue_.Close();
  dispatcher_.join();
}

RerankResult CarouselScheduler::Submit(const RerankRequest& request) {
  // The queue tags this entry with its epoch, so the dispatcher can report
  // exactly how many admission events the request waited (its admission
  // latency in cycle units).
  return AwaitFuture(clock_, queue_.Push(request));
}

CarouselScheduler::Stats CarouselScheduler::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

void CarouselScheduler::AdmitBoundary(CarouselPass* pass,
                                      std::vector<RequestQueue::Pending> batch,
                                      std::vector<Resident>* residents) {
  if (batch.empty()) {
    return;
  }
  // The pop that produced this batch already bumped the epoch, and only this
  // thread pops, so the difference is an exact admission-event count.
  const uint64_t boundary = queue_.epoch();
  const double now_ms = clock_->NowMs();
  std::vector<const RerankRequest*> requests;
  requests.reserve(batch.size());
  for (const RequestQueue::Pending& pending : batch) {
    requests.push_back(pending.request);
  }
  // One AdmitBatch call: the engine fans the joiners' embeds out across the
  // compute pool instead of serializing them while the carousel stalls.
  std::vector<std::unique_ptr<CarouselTicket>> tickets =
      pass->AdmitBatch(requests, compute_pool_.get());
  PRISM_CHECK_EQ(tickets.size(), batch.size());
  size_t max_wait = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    Resident resident;
    resident.queue_wait_ms = now_ms - batch[i].admitted_ms;
    resident.ticket = std::move(tickets[i]);
    resident.promise = std::move(batch[i].promise);
    max_wait = std::max(max_wait, static_cast<size_t>(boundary - batch[i].tag));
    residents->push_back(std::move(resident));
  }
  MutexLock lock(stats_mu_);
  stats_.admitted += batch.size();
  stats_.max_boundary_wait = std::max(stats_.max_boundary_wait, max_wait);
}

void CarouselScheduler::DispatchLoop() {
  // The dispatcher is a simulation participant: while it is runnable —
  // draining the queue, stepping a layer — virtual time stands still.
  const ClockMembership membership(clock_);
  for (;;) {
    // Idle: block for traffic, then spin the carousel up for one busy
    // period. It keeps revolving as long as boundary admission finds work.
    std::vector<RequestQueue::Pending> batch = queue_.Pop(max_inflight_, RequestQueue::kForever);
    if (batch.empty()) {
      return;  // Closed and drained.
    }
    std::unique_ptr<CarouselPass> pass = runner_->BeginCarousel();
    const size_t n_layers = pass->n_layers();
    PRISM_CHECK_GT(n_layers, 0u);

    std::vector<Resident> residents;
    residents.reserve(max_inflight_);
    AdmitBoundary(pass.get(), std::move(batch), &residents);
    {
      MutexLock lock(stats_mu_);
      ++stats_.passes;
      ++stats_.cycles;
    }

    size_t layer = 0;
    while (!residents.empty()) {
      // Forward the depth group whose next-needed layer just arrived. A
      // ticket already done (rejected at admission) is never stepped; it
      // exits below.
      std::vector<CarouselTicket*> group;
      group.reserve(residents.size());
      for (const Resident& resident : residents) {
        if (!resident.ticket->done() && resident.ticket->next_layer() == layer) {
          group.push_back(resident.ticket.get());
        }
      }
      pass->Step(layer, group, compute_pool_.get());

      // Exit finished requests immediately — no waiting for batchmates.
      const bool mid_cycle = layer + 1 < n_layers;
      for (auto it = residents.begin(); it != residents.end();) {
        if (it->ticket->done()) {
          RerankResult result = it->ticket->TakeResult();
          result.stats.queue_wait_ms = it->queue_wait_ms;
          it->ticket.reset();
          if (mid_cycle) {
            MutexLock lock(stats_mu_);
            ++stats_.exited_early;
          }
          clock_->PreWake();
          it->promise.set_value(std::move(result));
          it = residents.erase(it);
        } else {
          ++it;
        }
      }

      layer = (layer + 1) % n_layers;
      if (layer == 0 || residents.empty()) {
        // A boundary — either the natural wrap, or an early one because the
        // carousel drained mid-cycle. Realign first (a no-op at the wrap):
        // the prefetcher discards the skipped layers and starts warming the
        // next cycle's head immediately, so whoever joins next starts on
        // warm weights instead of a cold streamer.
        pass->SkipToNextCycle();
        layer = 0;
        std::vector<RequestQueue::Pending> joiners;
        if (residents.size() < max_inflight_) {
          joiners = queue_.Pop(max_inflight_ - residents.size(), /*timeout_ms=*/0.0);
        }
        AdmitBoundary(pass.get(), std::move(joiners), &residents);
        if (residents.empty()) {
          // Nothing to ride the next cycle. Linger briefly — pipeline warm,
          // layer 0 already loading — before tearing the pass down; a
          // request arriving inside the window skips the cold start. (A
          // zero window makes this one more non-blocking Pop.)
          std::vector<RequestQueue::Pending> stragglers = queue_.Pop(max_inflight_, linger_ms_);
          if (stragglers.empty()) {
            break;  // Idle (or closed): end the busy period.
          }
          AdmitBoundary(pass.get(), std::move(stragglers), &residents);
        }
        MutexLock lock(stats_mu_);
        ++stats_.cycles;
      }
    }
  }
}

}  // namespace prism
