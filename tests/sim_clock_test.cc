// SimClock: the discrete-event virtual clock (src/common/clock.h). These
// tests pin the protocol the serving stack's determinism rests on —
// advance-only-at-quiescence, exact-tag wakeups and deadline expiry,
// deterministic NotifyOne order, one participant running at a time in wake
// order — and the end-to-end property that a multi-threaded timeline replays
// identically run after run. Runs in the TSan CI lane: the clock is the one
// piece of sync machinery everything else trusts.
#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/mutex.h"

namespace prism {
namespace {

TEST(SimClockTest, StartsAtZeroAndSleepsAdvanceExactly) {
  SimClock clock;
  EXPECT_EQ(clock.NowMs(), 0.0);
  // A lone non-participant sleeper: nothing gates the advance, so the clock
  // jumps straight to the tag — no wall time passes.
  clock.SleepUntil(12.5);
  EXPECT_EQ(clock.NowMs(), 12.5);
  clock.SleepFor(0.5);
  EXPECT_EQ(clock.NowMs(), 13.0);
  // Sleeping until the past (or the present) is a no-op, and time is
  // monotonic: it never moves backwards.
  clock.SleepUntil(1.0);
  EXPECT_EQ(clock.NowMs(), 13.0);
  EXPECT_GE(clock.advances(), 2u);
}

TEST(SimClockTest, AdvancesOnlyWhenAllParticipantsBlockAndWakesInTagOrder) {
  SimClock clock;
  std::mutex log_mu;
  std::vector<size_t> wake_order;
  // Three participants sleeping until 1000, 2000, 3000 virtual ms. On the
  // wall clock this would take six seconds; here it completes as fast as the
  // threads can block — and in exactly tag order, because each wake leaves a
  // single runnable thread whose append happens before the next advance.
  // The reservation keeps thread 0 from advancing before 1 and 2 exist.
  const uint64_t first = clock.ExpectParticipants(3);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < 3; ++c) {
    threads.emplace_back([&, c] {
      const ClockMembership membership(&clock, first + c);
      clock.SleepUntil(static_cast<double>(c + 1) * 1000.0);
      std::lock_guard<std::mutex> lock(log_mu);
      wake_order.push_back(c);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(wake_order, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(clock.NowMs(), 3000.0);
}

TEST(SimClockTest, CondVarDeadlineExpiresAtTheExactInstant) {
  SimClock clock;
  std::unique_ptr<ClockCondVar> cv = clock.MakeCondVar();
  Mutex mu;
  MutexLock lock(mu);
  // No notifier anywhere: the wait can only end by expiry, and the clock
  // must land exactly on the deadline tag — not a tick past it.
  const bool ok = cv->WaitUntil(mu, 5.0);
  EXPECT_FALSE(ok);
  EXPECT_EQ(clock.NowMs(), 5.0);
  // A deadline at (or before) the current instant returns false without
  // blocking and without moving time.
  EXPECT_FALSE(cv->WaitUntil(mu, 5.0));
  EXPECT_FALSE(cv->WaitUntil(mu, 2.0));
  EXPECT_EQ(clock.NowMs(), 5.0);
}

TEST(SimClockTest, NotifyBeforeDeadlineWinsAndFreezesTimeAtTheNotify) {
  SimClock clock;
  std::unique_ptr<ClockCondVar> cv = clock.MakeCondVar();
  Mutex mu;
  bool ready = false;
  // Without the reservation the notifier could join, sleep, and fire (or
  // the waiter could expire) before the other thread even registered.
  const uint64_t first = clock.ExpectParticipants(2);
  std::thread waiter([&] {
    const ClockMembership membership(&clock, first);
    MutexLock lock(mu);
    bool ok = true;
    while (!ready) {
      if (!cv->WaitUntil(mu, 10.0)) {
        ok = ready;
        break;
      }
    }
    EXPECT_TRUE(ok);
    // The notifier fired at virtual 2.0; the 10.0 deadline never arrived.
    EXPECT_EQ(clock.NowMs(), 2.0);
  });
  std::thread notifier([&] {
    const ClockMembership membership(&clock, first + 1);
    clock.SleepUntil(2.0);
    {
      MutexLock lock(mu);
      ready = true;
    }
    cv->NotifyOne();
  });
  waiter.join();
  notifier.join();
  EXPECT_EQ(clock.NowMs(), 2.0);
}

TEST(SimClockTest, NotifyOneResumesWaitersInEnrollmentOrder) {
  SimClock clock;
  std::unique_ptr<ClockCondVar> cv = clock.MakeCondVar();
  Mutex mu;
  int tokens = 0;
  std::vector<int> order;
  // Waiters 1 and 2 enroll at staggered virtual instants (the sleep makes
  // enrollment order deterministic); the notifier then releases one token at
  // a time. NotifyOne must resume the longest-enrolled waiter first.
  const uint64_t first = clock.ExpectParticipants(3);
  std::vector<std::thread> threads;
  for (int id = 1; id <= 2; ++id) {
    threads.emplace_back([&, id] {
      const ClockMembership membership(&clock, first + static_cast<uint64_t>(id) - 1);
      clock.SleepUntil(static_cast<double>(id));
      MutexLock lock(mu);
      while (tokens <= 0) {
        cv->Wait(mu);
      }
      --tokens;
      order.push_back(id);
    });
  }
  threads.emplace_back([&] {
    const ClockMembership membership(&clock, first + 2);
    for (int round = 0; round < 2; ++round) {
      clock.SleepUntil(static_cast<double>(10 + round));
      {
        MutexLock lock(mu);
        ++tokens;
      }
      cv->NotifyOne();
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimClockTest, YieldUntilQuiescentWaitsOutTheInstantWithoutAdvancingTime) {
  SimClock clock;
  const ClockMembership membership(&clock);
  const uint64_t slot = clock.ExpectParticipants(1);
  std::thread sleeper([&] {
    const ClockMembership member(&clock, slot);
    clock.SleepUntil(5.0);
  });
  // The yield returns only once the sleeper is parked — and at zero virtual
  // cost: the sleeper's 5.0 tag must not fire while we are runnable.
  clock.YieldUntilQuiescent();
  EXPECT_EQ(clock.NowMs(), 0.0);
  // Now actually block past the sleeper's tag: both advances happen in
  // order (0 → 5 wakes the sleeper, 5 → 6 wakes us).
  clock.SleepUntil(6.0);
  EXPECT_EQ(clock.NowMs(), 6.0);
  sleeper.join();
}

TEST(SimClockTest, ParticipantsWokenAtOneInstantRunOneAtATimeInWakeOrder) {
  // Four participants, each woken at one instant twice — by one NotifyAll,
  // then by a shared tag — plus a notifier. Each writes two entries to a
  // log no mutex guards, yielding the host CPU between them: if two woken
  // participants ever ran at once their entries would interleave (and TSan
  // would report the race). The order is the wake order, fixed by the
  // schedule alone, so it must repeat exactly run after run.
  constexpr int kWaiters = 4;
  const auto run = [] {
    SimClock clock;
    std::unique_ptr<ClockCondVar> cv = clock.MakeCondVar();
    Mutex mu;
    bool go = false;
    std::vector<int> log;  // Unguarded on purpose.
    const auto write = [&log](int entry) {
      log.push_back(entry);
      for (int spin = 0; spin < 64; ++spin) {
        std::this_thread::yield();
      }
      log.push_back(entry);
    };
    const uint64_t first = clock.ExpectParticipants(kWaiters + 1);
    std::vector<std::thread> threads;
    // Started in reverse: the reserved slots, not host start order, decide
    // who runs first.
    for (int id = kWaiters - 1; id >= 0; --id) {
      threads.emplace_back([&, id] {
        const ClockMembership membership(&clock, first + static_cast<uint64_t>(id));
        write(id);  // Slot order.
        // Enrol on the cv in reverse id order, one instant apart.
        clock.SleepUntil(static_cast<double>(kWaiters - id));
        {
          MutexLock lock(mu);
          while (!go) {
            cv->Wait(mu);
          }
        }
        write(10 + id);  // NotifyAll order = enrolment order.
        clock.SleepUntil(100.0);
        write(20 + id);  // Shared tag: enrolment order of the sleeps.
      });
    }
    threads.emplace_back([&] {
      const ClockMembership membership(&clock, first + kWaiters);
      clock.SleepUntil(50.0);
      {
        MutexLock lock(mu);
        go = true;
      }
      cv->NotifyAll();
    });
    for (std::thread& t : threads) {
      t.join();
    }
    EXPECT_EQ(clock.NowMs(), 100.0);
    return log;
  };
  const std::vector<int> expected = {0,  0,  1,  1,  2,  2,  3,  3,  13, 13, 12, 12,
                                     11, 11, 10, 10, 23, 23, 22, 22, 21, 21, 20, 20};
  for (int repeat = 0; repeat < 50; ++repeat) {
    ASSERT_EQ(run(), expected) << "repeat " << repeat;
  }
}

TEST(SimClockTest, MultiThreadedTimelineReplaysIdentically) {
  // Four threads, five sleeps each, all tags distinct: the wake sequence is
  // fully determined by the tags, so every run of the scenario must produce
  // the same event log — the property the workload determinism tests build
  // on.
  const auto run = [] {
    SimClock clock;
    std::mutex log_mu;
    std::vector<std::pair<size_t, double>> log;
    const uint64_t first = clock.ExpectParticipants(4);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < 4; ++c) {
      threads.emplace_back([&, c] {
        const ClockMembership membership(&clock, first + c);
        for (size_t i = 1; i <= 5; ++i) {
          clock.SleepUntil(static_cast<double>(i) + static_cast<double>(c) * 0.1);
          std::lock_guard<std::mutex> lock(log_mu);
          log.emplace_back(c, clock.NowMs());
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    return log;
  };
  const auto first = run();
  ASSERT_EQ(first.size(), 20u);
  // The log is exactly the tag-sorted schedule...
  for (size_t i = 1; i <= 5; ++i) {
    for (size_t c = 0; c < 4; ++c) {
      const auto& event = first[(i - 1) * 4 + c];
      EXPECT_EQ(event.first, c);
      EXPECT_EQ(event.second, static_cast<double>(i) + static_cast<double>(c) * 0.1);
    }
  }
  // ...and replays byte-identically.
  EXPECT_EQ(run(), first);
  EXPECT_EQ(run(), first);
}

}  // namespace
}  // namespace prism
