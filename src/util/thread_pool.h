// The experiment runner's thread layer (src/harness/runner.h): run a plan's independent tasks
// on N threads and wait for all of them.
//
// Determinism is the caller's problem and is solved by construction: tasks must not
// communicate through shared mutable state, and anything order-dependent (seeding, output)
// must be derived from the task's own index, never from the order tasks start or finish.
#ifndef FMOE_SRC_UTIL_THREAD_POOL_H_
#define FMOE_SRC_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace fmoe {

// std::thread::hardware_concurrency with a floor of 1 (it may report 0).
int HardwareThreads();

// Runs `fn(index)` for index in [0, count) and returns once every call has finished. With
// threads <= 1 the calls happen inline, in index order, on the calling thread — the
// zero-overhead serial path the figure benches use at --jobs=1. Otherwise min(threads, count)
// threads each claim the next unclaimed index until none is left, and are joined. `fn` must
// not throw (this codebase aborts on programming errors; see util/logging.h).
void ParallelForIndex(size_t count, int threads, const std::function<void(size_t)>& fn);

}  // namespace fmoe

#endif  // FMOE_SRC_UTIL_THREAD_POOL_H_
