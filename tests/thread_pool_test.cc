#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace fmoe {
namespace {

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ParallelForIndexTest, VisitsEveryIndexExactlyOnce) {
  constexpr size_t kCount = 257;
  std::vector<std::atomic<int>> visits(kCount);
  ParallelForIndex(kCount, 4, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForIndexTest, SerialPathRunsInIndexOrderOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ParallelForIndex(5, 1, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForIndexTest, ZeroCountIsANoOp) {
  ParallelForIndex(0, 4, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForIndexTest, MoreThreadsThanWorkStillCoversAllIndices) {
  std::vector<std::atomic<int>> visits(3);
  ParallelForIndex(3, 16, [&](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(visits[i].load(), 1);
  }
}

}  // namespace
}  // namespace fmoe
