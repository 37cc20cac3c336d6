// Request admission for RerankService.
//
// A Scheduler decides how concurrent Rerank calls reach the engine:
//
//   SerialScheduler  — one request at a time through a Runner (the original
//                      behaviour; callers queue FIFO by ticket). For a
//                      runner that is not thread-safe. Deadlines are
//                      honoured at dispatch: a request whose budget expired
//                      while waiting its turn is shed.
//   CarouselScheduler — continuous batching: callers enqueue into a
//                      ticketed RequestQueue, and the dispatcher rides a
//                      cyclic layer pass (CarouselRunner::BeginCarousel)
//                      that never ends while traffic flows. Each layer's
//                      weights are fetched once for every resident request
//                      (the paper's §3.3 global view extended across
//                      requests), and each request's layer splits by
//                      candidate blocks across a worker pool. At each
//                      arriving layer k it forwards
//                      every resident request whose next-needed layer is k;
//                      new requests are admitted at the next layer-0
//                      boundary (worst-case wait one cycle), and a request
//                      that terminates — pruned to completion, failed, or
//                      rejected as malformed at admission — exits and
//                      answers its caller immediately instead of waiting
//                      for batchmates. When the carousel drains mid-cycle
//                      with work queued, it skips the rest of the cycle
//                      (the layers nobody needs are never fetched) and
//                      wraps early. Admission order, not thread timing,
//                      decides who rides a cycle, and per-request pruning
//                      keeps every result bit-identical to a serial run.
//
// Admission order is priority-then-FIFO: within a priority class, tickets
// (monotonic admission sequence numbers) decide; a higher class always
// dispatches before a lower one. Requests carrying a deadline are shed the
// moment the dispatcher observes them expired — their caller receives a
// kDeadlineExceeded RerankResult instead of burning an engine pass — so an
// overloaded service degrades by answering late requests cheaply rather
// than queueing unboundedly.
//
// Every blocking wait and every timestamp in this file goes through the
// Clock seam (src/common/clock.h). With the default wall clock nothing
// changes; under a SimClock the queue's deadline expiry, the schedulers'
// waits, and the carousel's linger window all run on deterministic virtual
// time, and the dispatcher yields to quiescence before draining the queue so
// cycle composition is a pure function of the virtual arrival schedule.
#ifndef PRISM_SRC_CORE_SCHEDULER_H_
#define PRISM_SRC_CORE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/thread_pool.h"
#include "src/runtime/runner.h"

namespace prism {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Blocks until the request has been served (or shed); thread-safe. A shed
  // or failed request is reported through `result.status`.
  virtual RerankResult Submit(const RerankRequest& request) = 0;
  virtual std::string name() const = 0;
};

// The result handed to a caller whose request was shed after waiting
// `waited_ms` against `deadline_ms`. topk stays empty; scores are not
// filled (the request never reached an engine). stats.queue_wait_ms and
// stats.latency_ms both carry `waited_ms`: a shed request's whole life was
// queue wait.
RerankResult MakeShedResult(double deadline_ms, double waited_ms);

// One-at-a-time pass-through to a Runner: each caller takes a ticket on
// arrival and runs when the ticket is being served (clock-aware waits, so
// waiters are visible to a SimClock). The handoff is strict FIFO: a caller
// that just finished and submits again queues behind every waiter instead
// of re-taking a free flag before the waiter it woke can run, so closed-loop
// clients are served round-robin. A shed request passes its turn on.
class SerialScheduler : public Scheduler {
 public:
  explicit SerialScheduler(Runner* runner, Clock* clock = nullptr)
      : runner_(runner), clock_(ResolveClock(clock)), cv_(clock_->MakeCondVar()) {}

  RerankResult Submit(const RerankRequest& request) override;
  std::string name() const override { return "serial"; }

 private:
  Runner* runner_;
  Clock* clock_;
  std::unique_ptr<ClockCondVar> cv_;
  Mutex mu_;
  uint64_t next_ticket_ PRISM_GUARDED_BY(mu_) = 0;  // Handed to the next arrival.
  uint64_t now_serving_ PRISM_GUARDED_BY(mu_) = 0;  // Ticket allowed to run.
};

// Ticketed priority-then-FIFO queue of pending requests, single-consumer by
// contract: any number of producers may Push concurrently, but at most one
// thread (the scheduler's dispatcher) calls Pop.
//
// One mutex guards everything: each Push takes the next admission ticket and
// inserts straight into a deque kept sorted (priority desc, ticket asc); the
// dispatcher sheds expired entries and takes its batch under the same lock.
// Admission costs microseconds against an engine pass of tens to hundreds of
// milliseconds, so one lock is all this path needs.
//
// Pushes never block on the dispatcher. Pop waits up to a timeout for an
// unexpired request (or Close) and then drains up to `max_batch` entries in
// (priority desc, ticket asc) order. Expired entries are shed inside Pop:
// their callers are answered with a kDeadlineExceeded result and they
// never surface to the dispatcher. All timestamps are clock milliseconds;
// all waits — the dispatcher's for work, each caller's for its answer — go
// through the clock's condition variables, so SimClock determinism is
// preserved — ordering decisions happen only in the dispatcher, after a
// yield to quiescence.
class RequestQueue {
 public:
  explicit RequestQueue(Clock* clock = nullptr);
  ~RequestQueue();

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  // Where one caller's answer lands: Push hands it out, the dispatcher fills
  // it with Answer (or Pop does, for a shed entry), and Await blocks on it.
  // Its fields are guarded by the queue's mutex (not annotatable here: the
  // mutex lives in the queue).
  struct Reply {
    explicit Reply(Clock* clock) : cv(clock->MakeCondVar()) {}
    std::unique_ptr<ClockCondVar> cv;
    bool answered = false;
    RerankResult result;
  };

  struct Pending {
    const RerankRequest* request = nullptr;
    std::shared_ptr<Reply> reply;
    uint64_t ticket = 0;
    int priority = 0;
    // The queue's epoch() when this entry was pushed. Push and the epoch
    // bump both happen under the queue mutex, so "epoch at dispatch minus
    // tag" counts exactly the admission events between this entry becoming
    // visible and its dispatch.
    uint64_t tag = 0;
    double admitted_ms = 0.0;
    // Absolute expiry instant (clock ms); only meaningful when has_deadline.
    double deadline_at_ms = 0.0;
    bool has_deadline = false;

    bool ExpiredAt(double now_ms) const { return has_deadline && now_ms >= deadline_at_ms; }
  };

  // Every Pop that returns a non-empty batch is an admission event and bumps
  // epoch(). With free capacity, epoch-at-dispatch − tag == 1, always.

  std::shared_ptr<Reply> Push(const RerankRequest& request);
  // Blocks until `reply` is answered and returns its result (once).
  RerankResult Await(Reply& reply);
  // Publishes a caller's result and wakes it.
  void Answer(Reply& reply, RerankResult result);

  // Pop's timeout that never gives up: block until a batch or Close.
  static constexpr double kForever = std::numeric_limits<double>::infinity();

  // Sheds expired entries and returns up to `max_batch` pending requests,
  // waiting up to `timeout_ms` for one to arrive. Three shapes, one per
  // dispatcher call site:
  //   - kForever: block until a non-empty batch, or return empty once the
  //     queue is closed and drained (the idle carousel's wait for traffic);
  //   - 0: never wait; possibly empty, and `max_batch` may be 0 (a cycle
  //     boundary admits whatever is queued);
  //   - finite: return empty when nothing unexpired arrived in time (the
  //     linger window, where a drained pass waits warm for the next
  //     arrival).
  // The drain first yields to clock quiescence (a no-op on the wall clock),
  // except after a wait that gave up with the queue empty.
  std::vector<Pending> Pop(size_t max_batch, double timeout_ms);

  // Wakes Pop; subsequent pushes are rejected (CHECK). Entries still
  // pending are drained by subsequent Pop calls.
  void Close();

  // Entries pending (not yet popped).
  size_t size() const;

  // Admission events so far: non-empty batches handed out by Pop.
  uint64_t epoch() const;

 private:
  // One consumer pass, under mu_: shed expired entries into *shed, take up
  // to max_batch survivors, and bump the epoch on a non-empty batch.
  std::vector<Pending> DrainPass(size_t max_batch, std::vector<Pending>* shed);
  // Sorted insert into ordered_ (priority desc, ticket asc), scanning from
  // the back — O(1) for the in-ticket-order pushes of one priority.
  void InsertOrdered(Pending pending) PRISM_REQUIRES(mu_);
  // Answers shed entries.
  void AnswerShed(std::vector<Pending> shed);
  bool HasWorkLocked() const PRISM_REQUIRES(mu_) { return !ordered_.empty(); }

  Clock* clock_;
  std::unique_ptr<ClockCondVar> cv_;  // Dispatcher parks here.
  mutable Mutex mu_;

  uint64_t next_ticket_ PRISM_GUARDED_BY(mu_) = 0;
  uint64_t epoch_ PRISM_GUARDED_BY(mu_) = 0;
  // Pending entries, kept sorted: priority descending, ticket ascending.
  std::deque<Pending> ordered_ PRISM_GUARDED_BY(mu_);
  bool closed_ PRISM_GUARDED_BY(mu_) = false;
};

// Continuous batching over a cyclic layer pass (see file comment). The
// dispatcher owns one CarouselPass per busy period: it admits up to
// `max_inflight` resident requests at each layer-0 boundary (priority-then-
// FIFO, deadline shedding via RequestQueue), steps every arriving layer's
// depth group, and answers each request the moment it finishes.
class CarouselScheduler : public Scheduler {
 public:
  // Progress counters, mainly for tests and benches. `max_boundary_wait` is
  // the most admission events any request saw between enqueue and
  // admission, counted through the queue's epoch: with free capacity it is
  // exactly 1 (a request enqueued mid-cycle is admitted at the very next
  // boundary), which is the "worst-case wait one cycle" admission-latency
  // guarantee; each capacity-bound skip adds 1.
  struct Stats {
    size_t passes = 0;     // Busy periods (carousel spin-ups).
    size_t cycles = 0;     // Layer-0 admission boundaries crossed.
    size_t admitted = 0;   // Requests that reached the carousel.
    size_t exited_early = 0;  // Finished before their admission cycle ended.
    size_t max_boundary_wait = 0;
  };

  // `compute_threads` sizes the compute pool that each request's layer
  // splits its candidate blocks across, one request after another (0 = one
  // per core, at least one per carousel slot). `linger_ms` is how long a drained
  // pass waits — prefetch pipeline warm, next cycle's first layers already
  // loading — for new traffic before tearing down; arrivals inside the
  // window start on warm weights instead of a cold streamer.
  CarouselScheduler(CarouselRunner* runner, size_t max_inflight, size_t compute_threads = 0,
                    double linger_ms = 200.0, Clock* clock = nullptr);
  ~CarouselScheduler() override;

  CarouselScheduler(const CarouselScheduler&) = delete;
  CarouselScheduler& operator=(const CarouselScheduler&) = delete;

  RerankResult Submit(const RerankRequest& request) override;
  std::string name() const override { return "carousel"; }

  size_t max_inflight() const { return max_inflight_; }
  Stats stats() const;

 private:
  struct Resident {
    std::unique_ptr<CarouselTicket> ticket;
    std::shared_ptr<RequestQueue::Reply> reply;
    double queue_wait_ms = 0.0;
  };

  // Runs on dispatcher_, joining the clock with the reserved `slot`.
  void DispatchLoop(uint64_t slot);
  // Admits `batch` into `pass` at a layer-0 boundary, updating the
  // admission stats.
  void AdmitBoundary(CarouselPass* pass, std::vector<RequestQueue::Pending> batch,
                     std::vector<Resident>* residents);

  CarouselRunner* runner_;
  size_t max_inflight_;
  double linger_ms_;
  Clock* clock_;
  RequestQueue queue_;
  std::unique_ptr<ThreadPool> compute_pool_;
  mutable Mutex stats_mu_;
  Stats stats_ PRISM_GUARDED_BY(stats_mu_);
  std::thread dispatcher_;
};

}  // namespace prism

#endif  // PRISM_SRC_CORE_SCHEDULER_H_
