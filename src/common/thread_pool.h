// Fixed-size worker pool.
//
// PRISM separates compute from I/O: the compute path runs on the caller's
// thread while weight prefetch / hidden-state spill run on pool workers (the
// C++ analogue of the paper's dedicated I/O process, §5). The carousel's
// compute pool uses ParallelFor to split one chunk's layer into contiguous
// candidate blocks (LayerForward), and to embed a boundary's joiners side by
// side. ParallelFor waits on the pool's workers, so it must never be called
// from inside one of the same pool's tasks.
#ifndef PRISM_SRC_COMMON_THREAD_POOL_H_
#define PRISM_SRC_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/mutex.h"

namespace prism {

class ThreadPool {
 public:
  // `num_threads` == 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn`; the returned future resolves when it has run.
  std::future<void> Submit(std::function<void()> fn);

  size_t num_threads() const { return threads_.size(); }

  // Runs fn(i) for i in [begin, end), splitting the range across workers and
  // the calling thread. Blocks until all iterations complete.
  void ParallelFor(size_t begin, size_t end, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ PRISM_GUARDED_BY(mu_);
  std::vector<std::thread> threads_;
  bool shutting_down_ PRISM_GUARDED_BY(mu_) = false;
};

// Process-wide pool for I/O offload (lazily constructed, 2 workers).
ThreadPool& GlobalIoPool();

}  // namespace prism

#endif  // PRISM_SRC_COMMON_THREAD_POOL_H_
