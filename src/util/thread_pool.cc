#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace fmoe {

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ParallelForIndex(size_t count, int threads, const std::function<void(size_t)>& fn) {
  if (threads <= 1 || count <= 1) {
    for (size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  // Dynamic index claiming: each thread pulls the next unclaimed index, so uneven task costs
  // (one model's runs dominating a cross-product) still load-balance.
  std::atomic<size_t> next{0};
  const size_t thread_count = std::min(static_cast<size_t>(threads), count);
  // A jthread joins on destruction, so every worker is joined before `next` goes away.
  std::vector<std::jthread> workers;
  workers.reserve(thread_count);
  for (size_t t = 0; t < thread_count; ++t) {
    workers.emplace_back([&] {
      for (size_t index = next.fetch_add(1, std::memory_order_relaxed); index < count;
           index = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(index);
      }
    });
  }
}

}  // namespace fmoe
