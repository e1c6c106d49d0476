// Fixed-size worker thread pool for embarrassingly parallel task sets.
//
// The pool exists for the experiment runner (src/harness/runner.h): experiment plans are
// ordered vectors of independent tasks, so the pool's only job is to execute closures on N
// threads and let the caller wait for quiescence. Determinism is the caller's problem and is
// solved by construction — submitted tasks must not communicate through shared mutable state,
// and anything order-dependent (seeding, output) must be derived from the task's own identity,
// never from submission or completion order.
#ifndef FMOE_SRC_UTIL_THREAD_POOL_H_
#define FMOE_SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fmoe {

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to >= 1). The pool is fixed-size for its lifetime.
  explicit ThreadPool(int threads);

  // Waits for all pending work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task. Tasks must not throw across the closure boundary (this codebase
  // aborts on programming errors rather than throwing; see util/logging.h).
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing (queue drained and no task
  // in flight). Safe to call repeatedly; Submit may be called again afterwards.
  void Wait();

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // std::thread::hardware_concurrency with a floor of 1 (it may report 0).
  static int HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // Tasks popped but not yet finished.
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

// Runs `fn(index)` for index in [0, count) across `threads` workers and waits for all of
// them. With threads <= 1 the calls happen inline, in index order, on the calling thread —
// the zero-overhead serial path the figure benches use at --jobs=1.
void ParallelForIndex(size_t count, int threads, const std::function<void(size_t)>& fn);

}  // namespace fmoe

#endif  // FMOE_SRC_UTIL_THREAD_POOL_H_
