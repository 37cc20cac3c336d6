#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "src/common/flags.h"
#include "src/common/memory_tracker.h"
#include "src/common/percentile.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/common/zipf.h"

namespace prism {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status status = Status::NotFound("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::Internal("boom"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    same += a.NextU64() == b.NextU64() ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, MixSeedSpreads) {
  EXPECT_NE(MixSeed(1, 2), MixSeed(2, 1));
  EXPECT_NE(MixSeed(0, 0), 0u);
}

TEST(ZipfTest, SkewConcentratesOnLowRanks) {
  const ZipfSampler zipf(1000, 1.2);
  Rng rng(5);
  int low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) {
      ++low;
    }
  }
  // With skew 1.2, the top-10 ranks carry a large share of the mass.
  EXPECT_GT(low, n / 4);
}

TEST(ZipfTest, ZeroSkewIsUniformish) {
  const ZipfSampler zipf(100, 0.0);
  Rng rng(6);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) {
      ++low;
    }
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.10, 0.02);
}

TEST(ZipfTest, SamplesInRange) {
  const ZipfSampler zipf(50, 1.0);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 50u);
  }
}

TEST(FlagsTest, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--alpha=3", "--name=hello", "--flag", "--ratio=0.5"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 3);
  EXPECT_EQ(flags.GetString("name", ""), "hello");
  EXPECT_TRUE(flags.GetBool("flag", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio", 0.0), 0.5);
  EXPECT_EQ(flags.GetInt("missing", 17), 17);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(MemoryTrackerTest, TracksCurrentAndPeak) {
  MemoryTracker tracker;
  tracker.Allocate(MemCategory::kWeights, 100);
  tracker.Allocate(MemCategory::kActivations, 50);
  EXPECT_EQ(tracker.CurrentTotal(), 150);
  tracker.Release(MemCategory::kActivations, 50);
  EXPECT_EQ(tracker.CurrentTotal(), 100);
  EXPECT_EQ(tracker.PeakTotal(), 150);
  EXPECT_EQ(tracker.PeakBytes(MemCategory::kWeights), 100);
}

TEST(MemoryTrackerTest, ClaimReleasesOnDestruction) {
  MemoryTracker tracker;
  {
    MemClaim claim(&tracker, MemCategory::kEmbedding, 64);
    EXPECT_EQ(tracker.CurrentBytes(MemCategory::kEmbedding), 64);
  }
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kEmbedding), 0);
}

TEST(MemoryTrackerTest, ClaimMoveTransfersOwnership) {
  MemoryTracker tracker;
  MemClaim a(&tracker, MemCategory::kScratch, 32);
  MemClaim b = std::move(a);
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kScratch), 32);
  b.ReleaseNow();
  EXPECT_EQ(tracker.CurrentBytes(MemCategory::kScratch), 0);
}

TEST(MemoryTrackerTest, TimelineRecordsEvents) {
  MemoryTracker tracker;
  tracker.StartTimeline();
  tracker.Allocate(MemCategory::kWeights, 10);
  tracker.Allocate(MemCategory::kWeights, 20);
  tracker.Release(MemCategory::kWeights, 30);
  tracker.StopTimeline();
  const auto timeline = tracker.Timeline();
  ASSERT_GE(timeline.size(), 4u);
  EXPECT_EQ(timeline.back().total(), 0);
  // Timestamps are monotone.
  for (size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].t_micros, timeline[i - 1].t_micros);
  }
}

TEST(MemoryTrackerTest, ResetClearsEverything) {
  MemoryTracker tracker;
  tracker.Allocate(MemCategory::kWeights, 10);
  tracker.Reset();
  EXPECT_EQ(tracker.CurrentTotal(), 0);
  EXPECT_EQ(tracker.PeakTotal(), 0);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(0, 100, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, [&ran](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(PercentileTest, EmptySampleIsZero) {
  EXPECT_EQ(PercentileOverSorted({}, 0.0), 0.0);
  EXPECT_EQ(PercentileOverSorted({}, 50.0), 0.0);
  EXPECT_EQ(PercentileOverSorted({}, 100.0), 0.0);
}

TEST(PercentileTest, SingleSampleIsEveryPercentile) {
  const std::vector<double> one = {42.0};
  EXPECT_EQ(PercentileOverSorted(one, 0.0), 42.0);
  EXPECT_EQ(PercentileOverSorted(one, 50.0), 42.0);
  EXPECT_EQ(PercentileOverSorted(one, 99.0), 42.0);
  EXPECT_EQ(PercentileOverSorted(one, 100.0), 42.0);
}

TEST(PercentileTest, ExtremesPickFirstAndLast) {
  // Ceil-rank convention: p=0 rounds to rank 1 (the minimum); p=100 covers
  // the whole sample (the maximum) — neither may over- or under-shoot the
  // index range.
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(PercentileOverSorted(sorted, 0.0), 1.0);
  EXPECT_EQ(PercentileOverSorted(sorted, 100.0), 4.0);
  // p=25 on 4 samples is exactly rank 1; a hair above lands rank 2.
  EXPECT_EQ(PercentileOverSorted(sorted, 25.0), 1.0);
  EXPECT_EQ(PercentileOverSorted(sorted, 25.1), 2.0);
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(timer.ElapsedMicros(), 9000);
}

}  // namespace
}  // namespace prism
