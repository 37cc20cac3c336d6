// The clock seam: every timing-sensitive layer of the serving stack (queue
// deadlines, scheduler waits, linger windows, workload arrival schedules,
// latency observation) reads time and blocks through this interface instead
// of touching std::chrono directly.
//
// Two implementations:
//
//   WallClock — the default; a thin veneer over std::steady_clock and
//               std::condition_variable. Behaviour is identical to the
//               pre-seam code: callers that never pass a Clock* see no
//               change at all.
//   SimClock  — a discrete-event virtual clock. Threads that participate in
//               the simulation register themselves (Join/Leave), and at most
//               one participant runs at a time: a participant woken by a
//               notify or by its tag arriving waits in a ready list until
//               the running one blocks or leaves, and ready participants run
//               one after another in wake order — notify order, or (tag,
//               enrolment order) for timed wakes. Once nobody runs and
//               nobody is ready, the clock advances virtual time to the
//               earliest scheduled wake tag. Nothing ever waits on the host
//               clock, so a workload that takes minutes of wall time replays
//               in milliseconds, and because participants never overlap,
//               every interleaving of their code — same-instant events
//               included — is a pure function of the scheduled tags and
//               wake order: deterministic regardless of host speed or core
//               count. Grounded in the strongly-consistent discrete-event
//               systems construction (Donovan et al., PAPERS.md): events
//               with the same tag run in a defined microstep order.
//
// What is and isn't virtualized: only *waiting* consumes virtual time.
// Real compute (an engine pass, a thread-pool fan-out, the simulated SSD's
// throttle sleeps) runs at wall speed while virtual time stands still — the
// running participant holds the instant, and the clock never advances past
// it. A simulation that wants service time to pass must charge it
// explicitly through SleepFor (see SimulatedRunner in
// src/runtime/sim_runner.h). A participant must therefore never block
// outside the clock on another participant (a std::future, a plain
// condition variable, a thread join): the other one cannot run until it
// does.
#ifndef PRISM_SRC_COMMON_CLOCK_H_
#define PRISM_SRC_COMMON_CLOCK_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/mutex.h"

namespace prism {

// A condition variable bound to a Clock: Wait/WaitUntil release the caller's
// mutex and block through the clock's notion of time, so a SimClock can both
// account the waiter as blocked and expire its deadline at an exact virtual
// instant. NotifyOne on a SimClock wakes the longest-enrolled waiter, making
// wake order deterministic.
//
// Waiting is loop-style, matching prism::CondVar: one call parks once, the
// caller re-checks its condition in a `while` loop (which keeps every
// guarded read inside the function clang's thread-safety analysis is
// checking — a predicate lambda would be an analysis hole).
class ClockCondVar {
 public:
  virtual ~ClockCondVar() = default;

  // Parks once; returns after a notify (or, on the wall clock, a spurious
  // wake — callers loop on their condition either way).
  virtual void Wait(Mutex& mu) PRISM_REQUIRES(mu) = 0;

  // Parks once, waking no later than the instant the clock reads
  // `deadline_ms`. Returns false iff the deadline has arrived (a deadline
  // at or before the current instant returns false without blocking);
  // callers loop:
  //   while (!cond) {
  //     if (!cv->WaitUntil(mu, deadline_ms)) break;  // cond may hold too
  //   }
  virtual bool WaitUntil(Mutex& mu, double deadline_ms) PRISM_REQUIRES(mu) = 0;

  virtual void NotifyOne() = 0;
  virtual void NotifyAll() = 0;
};

class Clock {
 public:
  // The place a Join takes in the run order when the spawner reserved none.
  static constexpr uint64_t kUnreserved = std::numeric_limits<uint64_t>::max();

  virtual ~Clock() = default;

  // Milliseconds since the clock's epoch (process start for the wall clock,
  // 0.0 for a fresh SimClock). Monotonic.
  virtual double NowMs() = 0;

  // Blocks until NowMs() >= wake_ms (no-op if already past).
  virtual void SleepUntil(double wake_ms) = 0;
  void SleepFor(double ms) { SleepUntil(NowMs() + ms); }

  virtual std::unique_ptr<ClockCondVar> MakeCondVar() = 0;

  // --- Discrete-event participation (all no-ops on the wall clock). ------

  // Registers / unregisters the calling thread as a simulation participant.
  // Join returns once it is the thread's turn to run: `slot` is a place
  // handed out by ExpectParticipants, or kUnreserved to queue behind
  // whatever is ready now.
  virtual void Join(uint64_t slot) { (void)slot; }
  virtual void Leave() {}

  // Reserves `n` future participants and returns the first of their slots
  // (the i-th thread joins with slot first + i): a spawner calls this
  // BEFORE starting participant threads. The slots queue to run in
  // reservation order, and time cannot advance past them — otherwise the
  // first thread to start could block and advance the clock past tags the
  // not-yet-registered threads were due to wake at, and host join order
  // would decide who runs first.
  virtual uint64_t ExpectParticipants(size_t n) {
    (void)n;
    return 0;
  }

  // Blocks the caller (at zero virtual cost) until every other participant
  // is blocked too — i.e. until the current virtual instant has fully played
  // out. Dispatchers call this before draining a queue so that a batch
  // always contains *every* request issued at the instant.
  virtual void YieldUntilQuiescent() {}
};

// RAII participant registration.
class ClockMembership {
 public:
  explicit ClockMembership(Clock* clock, uint64_t slot = Clock::kUnreserved) : clock_(clock) {
    clock_->Join(slot);
  }
  ~ClockMembership() { clock_->Leave(); }
  ClockMembership(const ClockMembership&) = delete;
  ClockMembership& operator=(const ClockMembership&) = delete;

 private:
  Clock* clock_;
};

// Monotonic wall time; the process-wide default. Get() hands out one shared
// instance so every layer that defaults its Clock* sees the same epoch.
class WallClock : public Clock {
 public:
  WallClock() : epoch_(std::chrono::steady_clock::now()) {}

  double NowMs() override;
  void SleepUntil(double wake_ms) override;
  std::unique_ptr<ClockCondVar> MakeCondVar() override;

  static WallClock& Get();

 private:
  const std::chrono::steady_clock::time_point epoch_;
};

// nullptr -> the shared wall clock; anything else passes through. Every
// Clock* option in the stack defaults to nullptr, so existing callers keep
// wall-clock behaviour without naming a clock.
inline Clock* ResolveClock(Clock* clock) {
  return clock != nullptr ? clock : &WallClock::Get();
}

// The discrete-event virtual clock (see file comment). All state lives under
// one mutex; waiters park on one central condition variable and are resumed
// by notifies, virtual-time advances, or their turn to run. Thread-safe
// throughout.
class SimClock : public Clock {
 public:
  SimClock() = default;
  ~SimClock() override;

  double NowMs() override;
  void SleepUntil(double wake_ms) override;
  std::unique_ptr<ClockCondVar> MakeCondVar() override;

  void Join(uint64_t slot) override;
  void Leave() override;
  uint64_t ExpectParticipants(size_t n) override;
  void YieldUntilQuiescent() override;

  // Virtual-time advances performed so far (tests).
  uint64_t advances() const;

 private:
  friend class SimCondVar;

  static constexpr double kNever = std::numeric_limits<double>::infinity();

  struct Waiter {
    double wake_ms = kNever;   // Virtual instant at which to resume (inf = untimed).
    bool wake = false;         // Set by a notify or an expired tag.
    bool participant = false;  // Enrolling thread had Join()ed this clock.
    bool runs = false;         // Participant: its turn to run has come.
    uint64_t seq = 0;          // Enrollment order; NotifyOne resumes lowest.
    const void* cv_tag = nullptr;  // Owning SimCondVar (null for sleepers).
  };

  // All Locked helpers require mu_ held.
  void EnrollLocked(Waiter* waiter) PRISM_REQUIRES(mu_);
  void DeenrollLocked(Waiter* waiter) PRISM_REQUIRES(mu_);
  // Marks a waiter woken: a non-participant resumes at once, a participant
  // joins the back of the ready list.
  void WakeLocked(Waiter* waiter) PRISM_REQUIRES(mu_);
  // The running participant stopped (it blocked or left): hand the turn to
  // the first ready one, or, if none is ready, advance time.
  void YieldTurnLocked() PRISM_REQUIRES(mu_);
  // Hands the turn to the first ready participant if nobody runs.
  void GrantLocked() PRISM_REQUIRES(mu_);
  // Advances virtual time iff nobody runs, nobody is ready, and some waiter
  // has a finite tag. Wakes every waiter whose tag has arrived.
  void MaybeAdvanceLocked() PRISM_REQUIRES(mu_);
  // Parks the caller until its waiter is woken (a non-participant) or its
  // turn to run has come (a participant). `lock` owns mu_ on entry (it is
  // the MutexLock's native lock) and owns it again on return.
  void BlockLocked(NativeMutexLock& lock, Waiter* waiter) PRISM_REQUIRES(mu_);

  mutable Mutex mu_;
  std::condition_variable cv_;  // Central: every waiter parks here.
  double now_ms_ PRISM_GUARDED_BY(mu_) = 0.0;
  // A participant holds the turn: it runs, or it is a reserved slot whose
  // thread has yet to join.
  bool running_ PRISM_GUARDED_BY(mu_) = false;
  // Woken participants waiting for the turn, in wake order.
  std::deque<Waiter*> ready_ PRISM_GUARDED_BY(mu_);
  // Reserved slots whose thread has not joined yet (std::map: stable nodes,
  // so ready_ may point at them).
  std::map<uint64_t, Waiter> reserved_ PRISM_GUARDED_BY(mu_);
  uint64_t next_slot_ PRISM_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ PRISM_GUARDED_BY(mu_) = 0;
  uint64_t advances_ PRISM_GUARDED_BY(mu_) = 0;
  std::vector<Waiter*> waiters_ PRISM_GUARDED_BY(mu_);
};

}  // namespace prism

#endif  // PRISM_SRC_COMMON_CLOCK_H_
