#include "perfbench/src/loadgen.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <mutex>
#include <thread>

#include "perfbench/src/measure.h"
#include "src/common/rng.h"

namespace perfbench {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

SteadyClock::time_point After(SteadyClock::time_point t, double ms) {
  return t + std::chrono::duration_cast<SteadyClock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

// Measure-phase bookkeeping shared by both loops.
struct Window {
  SteadyClock::time_point start;
  double cpu_start = 0.0;
  bool rss_reset = false;

  void Open(const LoadOptions& options, SteadyClock::time_point at) {
    rss_reset = ResetPeakRss();
    cpu_start = ProcessCpuSeconds();
    start = at;
    if (options.on_measure_start) {
      options.on_measure_start();
    }
  }
};

struct Completions {
  std::mutex mu;
  std::vector<RequestTiming> timings;
  SteadyClock::time_point last_end;

  void Add(const std::vector<RequestTiming>& local, SteadyClock::time_point end) {
    const std::lock_guard<std::mutex> lock(mu);
    timings.insert(timings.end(), local.begin(), local.end());
    last_end = std::max(last_end, end);
  }
};

LoadReport Finish(const Window& window, Completions& done) {
  LoadReport report;
  report.cpu_s = ProcessCpuSeconds() - window.cpu_start;
  report.peak_rss_mib = PeakRssMiB();
  report.rss_reset = window.rss_reset;
  report.wall_s = std::max(MsBetween(window.start, done.last_end), 1e-3) / 1000.0;
  report.timings = std::move(done.timings);
  std::sort(report.timings.begin(), report.timings.end(),
            [](const RequestTiming& a, const RequestTiming& b) { return a.index < b.index; });
  return report;
}

LoadReport RunClosed(const LoadOptions& options, const LoadCall& call) {
  Window window;
  SteadyClock::time_point stop;
  auto open = [&]() noexcept {
    window.Open(options, SteadyClock::now());
    stop = After(window.start, 1000.0 * options.seconds);
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(options.callers), open);
  std::atomic<size_t> next_warmup{0};
  std::atomic<size_t> next{0};
  Completions done;
  std::vector<std::thread> callers;
  for (size_t c = 0; c < options.callers; ++c) {
    callers.emplace_back([&, c] {
      prism::Rng think_rng(prism::MixSeed(options.seed, 0x7A1C + c));
      for (size_t w = 0; w < options.warmup_per_caller; ++w) {
        call(next_warmup.fetch_add(1), /*warmup=*/true);
      }
      sync.arrive_and_wait();
      std::vector<RequestTiming> local;
      SteadyClock::time_point end = window.start;
      while (SteadyClock::now() < stop) {
        const size_t index = next.fetch_add(1);
        if (index >= options.max_requests) {
          break;
        }
        const SteadyClock::time_point begin = SteadyClock::now();
        call(index, /*warmup=*/false);
        end = SteadyClock::now();
        local.push_back({index, MsBetween(begin, end), 0.0});
        if (options.think_ms > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              options.think_ms * think_rng.NextUniform(0.5, 1.5)));
        }
      }
      done.Add(local, end);
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  return Finish(window, done);
}

LoadReport RunOpen(const LoadOptions& options, const LoadCall& call) {
  const std::vector<double>& arrivals = options.arrivals_ms;
  const auto warm = static_cast<size_t>(
      std::lower_bound(arrivals.begin(), arrivals.end(), options.warmup_ms) - arrivals.begin());
  const SteadyClock::time_point start = SteadyClock::now();
  const SteadyClock::time_point measure_start = After(start, options.warmup_ms);
  std::atomic<size_t> next{0};
  Completions done;
  done.last_end = measure_start;
  std::vector<std::thread> senders;
  for (size_t c = 0; c < options.callers; ++c) {
    senders.emplace_back([&] {
      std::vector<RequestTiming> local;
      SteadyClock::time_point end = measure_start;
      for (size_t i = next.fetch_add(1); i < arrivals.size(); i = next.fetch_add(1)) {
        const SteadyClock::time_point due = After(start, arrivals[i]);
        std::this_thread::sleep_until(due);
        const SteadyClock::time_point begin = SteadyClock::now();
        const bool warmup = i < warm;
        call(warmup ? i : i - warm, warmup);
        if (!warmup) {
          end = SteadyClock::now();
          local.push_back({i - warm, MsBetween(due, end), MsBetween(due, begin)});
        }
      }
      done.Add(local, end);
    });
  }
  std::this_thread::sleep_until(measure_start);
  Window window;
  window.Open(options, measure_start);
  for (std::thread& t : senders) {
    t.join();
  }
  return Finish(window, done);
}

}  // namespace

LoadReport RunLoad(const LoadOptions& options, const LoadCall& call) {
  return options.arrivals_ms.empty() ? RunClosed(options, call) : RunOpen(options, call);
}

}  // namespace perfbench
