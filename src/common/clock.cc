#include "src/common/clock.h"

#include <algorithm>
#include <cassert>
#include <thread>

#include "src/common/check.h"
#include "src/common/mutex.h"

namespace prism {
namespace {

// Thread-local record of which SimClocks this thread has Join()ed. A plain
// pointer suffices: a thread participates in at most one simulation at a
// time in practice, but nesting Join()s on distinct clocks is tolerated by
// keeping a small stack.
thread_local std::vector<const SimClock*> tls_memberships;

bool ThisThreadJoined(const SimClock* clock) {
  for (const SimClock* member : tls_memberships) {
    if (member == clock) return true;
  }
  return false;
}

// The wall-clock condition variable: std::condition_variable over the
// caller's mutex, time read through the shared epoch.
class WallCondVar : public ClockCondVar {
 public:
  explicit WallCondVar(const std::chrono::steady_clock::time_point epoch) : epoch_(epoch) {}

  void Wait(Mutex& mu) override PRISM_REQUIRES(mu) {
    NativeMutexLock lock(mu.native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // Still locked; ownership returns to the caller.
  }

  bool WaitUntil(Mutex& mu, double deadline_ms) override PRISM_REQUIRES(mu) {
    const auto deadline =
        epoch_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(deadline_ms));
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;  // Already expired: never park (matches SimCondVar).
    }
    NativeMutexLock lock(mu.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status != std::cv_status::timeout;
  }

  void NotifyOne() override { cv_.notify_one(); }
  void NotifyAll() override { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
  const std::chrono::steady_clock::time_point epoch_;
};

}  // namespace

// ---------------------------------------------------------------------------
// WallClock

double WallClock::NowMs() {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

void WallClock::SleepUntil(double wake_ms) {
  const auto wake = epoch_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double, std::milli>(wake_ms));
  std::this_thread::sleep_until(wake);
}

std::unique_ptr<ClockCondVar> WallClock::MakeCondVar() {
  return std::make_unique<WallCondVar>(epoch_);
}

WallClock& WallClock::Get() {
  static WallClock* instance = new WallClock();
  return *instance;
}

// ---------------------------------------------------------------------------
// SimCondVar

// Waiters enroll in the clock's central table while holding BOTH the user's
// mutex and the clock's mutex (acquired in that order everywhere), so a
// notify that happens after the user mutex is released but before the waiter
// parks still finds the enrolled entry — no missed wakeups.
class SimCondVar : public ClockCondVar {
 public:
  explicit SimCondVar(SimClock* clock) : clock_(clock) {}

  void Wait(Mutex& mu) override PRISM_REQUIRES(mu) { WaitOnce(mu, SimClock::kNever); }

  bool WaitUntil(Mutex& mu, double deadline_ms) override PRISM_REQUIRES(mu) {
    {
      MutexLock clock_lock(clock_->mu_);
      if (clock_->now_ms_ >= deadline_ms) {
        return false;  // Already expired: never park.
      }
    }
    WaitOnce(mu, deadline_ms);
    // The park ends on a notify or on the deadline tag arriving; report
    // which (a notify landing exactly at the deadline counts as expiry —
    // the caller re-checks its condition either way).
    MutexLock clock_lock(clock_->mu_);
    return clock_->now_ms_ < deadline_ms;
  }

  void NotifyOne() override {
    MutexLock clock_lock(clock_->mu_);
    // Deterministic: resume the longest-enrolled non-woken waiter of this cv.
    SimClock::Waiter* chosen = nullptr;
    for (SimClock::Waiter* waiter : clock_->waiters_) {
      if (waiter->cv_tag == this && !waiter->wake &&
          (chosen == nullptr || waiter->seq < chosen->seq)) {
        chosen = waiter;
      }
    }
    if (chosen != nullptr) {
      clock_->WakeLocked(chosen);
      clock_->GrantLocked();
    }
  }

  void NotifyAll() override {
    MutexLock clock_lock(clock_->mu_);
    // waiters_ is in enrollment order, so the woken join the ready list in it.
    for (SimClock::Waiter* waiter : clock_->waiters_) {
      if (waiter->cv_tag == this && !waiter->wake) {
        clock_->WakeLocked(waiter);
      }
    }
    clock_->GrantLocked();
  }

 private:
  // One enrollment/park/deenroll round trip. Returns after a notify or once
  // virtual time reaches `deadline_ms`. The user's mutex is released while
  // parked and re-acquired before returning (standard cv contract; the
  // release/relock happens through native() and is invisible to the
  // thread-safety analysis, which only checks the held-on-entry-and-exit
  // contract declared by PRISM_REQUIRES).
  void WaitOnce(Mutex& mu, double deadline_ms) PRISM_REQUIRES(mu) {
    SimClock::Waiter waiter;
    waiter.wake_ms = deadline_ms;
    waiter.cv_tag = this;
    {
      // User mutex still held here — enrollment is atomic w.r.t. notifies.
      MutexLock clock_lock(clock_->mu_);
      clock_->EnrollLocked(&waiter);
      mu.native().unlock();
      clock_->BlockLocked(clock_lock.native_lock(), &waiter);
      clock_->DeenrollLocked(&waiter);
    }
    mu.native().lock();
  }

  SimClock* clock_;
};

// ---------------------------------------------------------------------------
// SimClock

SimClock::~SimClock() {
  MutexLock lock(mu_);
  assert(waiters_.empty() && "SimClock destroyed with threads still blocked on it");
}

double SimClock::NowMs() {
  MutexLock lock(mu_);
  return now_ms_;
}

void SimClock::SleepUntil(double wake_ms) {
  MutexLock lock(mu_);
  if (now_ms_ >= wake_ms) return;
  Waiter waiter;
  waiter.wake_ms = wake_ms;
  EnrollLocked(&waiter);
  BlockLocked(lock.native_lock(), &waiter);
  DeenrollLocked(&waiter);
}

std::unique_ptr<ClockCondVar> SimClock::MakeCondVar() {
  return std::make_unique<SimCondVar>(this);
}

void SimClock::Join(uint64_t slot) {
  MutexLock lock(mu_);
  tls_memberships.push_back(this);
  if (slot == kUnreserved) {
    // Queue behind whatever is ready now, like a participant woken here.
    Waiter turn;
    turn.participant = true;
    WakeLocked(&turn);
    GrantLocked();
    BlockLocked(lock.native_lock(), &turn);
    return;
  }
  // The reservation has held a place in the ready list since
  // ExpectParticipants; wait for the turn to reach it.
  const auto it = reserved_.find(slot);
  PRISM_CHECK_MSG(it != reserved_.end(), "Join with a slot that was not reserved or was taken");
  BlockLocked(lock.native_lock(), &it->second);
  reserved_.erase(it);
}

void SimClock::Leave() {
  MutexLock lock(mu_);
  for (size_t i = tls_memberships.size(); i-- > 0;) {
    if (tls_memberships[i] == this) {
      tls_memberships.erase(tls_memberships.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  YieldTurnLocked();
}

uint64_t SimClock::ExpectParticipants(size_t n) {
  MutexLock lock(mu_);
  const uint64_t first = next_slot_;
  for (size_t i = 0; i < n; ++i) {
    Waiter& turn = reserved_[next_slot_++];
    turn.participant = true;
    WakeLocked(&turn);
  }
  GrantLocked();
  return first;
}

void SimClock::YieldUntilQuiescent() {
  // A zero-length virtual sleep: tag == now, so the advance that wakes it
  // never moves time — it just waits for every other participant to block.
  MutexLock lock(mu_);
  Waiter waiter;
  waiter.wake_ms = now_ms_;
  EnrollLocked(&waiter);
  BlockLocked(lock.native_lock(), &waiter);
  DeenrollLocked(&waiter);
}

uint64_t SimClock::advances() const {
  MutexLock lock(mu_);
  return advances_;
}

void SimClock::EnrollLocked(Waiter* waiter) {
  waiter->seq = next_seq_++;
  waiter->participant = ThisThreadJoined(this);
  waiters_.push_back(waiter);
  if (waiter->participant) {
    YieldTurnLocked();  // The running participant just blocked.
  } else {
    MaybeAdvanceLocked();  // A new tag may be the only one left to reach.
  }
}

void SimClock::DeenrollLocked(Waiter* waiter) {
  for (size_t i = 0; i < waiters_.size(); ++i) {
    if (waiters_[i] == waiter) {
      waiters_.erase(waiters_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
}

void SimClock::WakeLocked(Waiter* waiter) {
  waiter->wake = true;
  if (waiter->participant) {
    ready_.push_back(waiter);  // Resumes when GrantLocked hands it the turn.
  } else {
    cv_.notify_all();
  }
}

void SimClock::YieldTurnLocked() {
  running_ = false;
  GrantLocked();
  MaybeAdvanceLocked();
}

void SimClock::GrantLocked() {
  if (running_ || ready_.empty()) {
    return;
  }
  running_ = true;
  ready_.front()->runs = true;
  ready_.pop_front();
  cv_.notify_all();
}

void SimClock::MaybeAdvanceLocked() {
  // Quiescence: nobody runs and nobody waits for the turn, so every
  // participant is parked. (Threads that never Join()ed, e.g. a test's main
  // thread doing a serial virtual sleep, don't gate advance but their tags
  // DO schedule it.)
  if (running_ || !ready_.empty()) {
    return;
  }
  // Earliest scheduled tag over ALL non-woken waiters, participant or not.
  double min_tag = kNever;
  for (const Waiter* waiter : waiters_) {
    if (!waiter->wake) {
      min_tag = std::min(min_tag, waiter->wake_ms);
    }
  }
  if (min_tag == kNever) {
    return;  // Nothing scheduled: either idle or a real deadlock upstream.
  }
  now_ms_ = std::max(now_ms_, min_tag);
  ++advances_;
  // Every waiter woken here has the tag min_tag, and waiters_ is in
  // enrollment order: the ready list takes them in (tag, enrollment) order.
  for (Waiter* waiter : waiters_) {
    if (!waiter->wake && waiter->wake_ms <= now_ms_) {
      WakeLocked(waiter);
    }
  }
  GrantLocked();
}

void SimClock::BlockLocked(NativeMutexLock& lock, Waiter* waiter) {
  while (!(waiter->participant ? waiter->runs : waiter->wake)) {
    cv_.wait(lock);
  }
}

}  // namespace prism
