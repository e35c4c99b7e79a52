#include "common/thread_pool.h"

#include <sched.h>

#include <algorithm>

namespace airindex {

unsigned ResolveThreads(unsigned num_threads) {
  if (num_threads != 0) return num_threads;
  // The CPUs this thread may run on: hardware_concurrency() counts every
  // CPU of the machine, also under a pin (taskset, a cgroup cpuset).
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    const int count = CPU_COUNT(&cpus);
    if (count > 0) return static_cast<unsigned>(count);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned ResolveWorkers(size_t count, unsigned num_threads) {
  if (count == 0) return 1;
  return static_cast<unsigned>(std::max<size_t>(
      1, std::min<size_t>(ResolveThreads(num_threads), count)));
}

void ParallelForChunked(
    size_t count, size_t chunk,
    const std::function<void(unsigned, size_t, size_t)>& fn,
    unsigned num_threads) {
  if (count == 0) return;
  if (chunk == 0) chunk = 1;
  const unsigned threads = ResolveWorkers(count, num_threads);

  if (threads <= 1) {
    for (size_t i = 0; i < count; i += chunk) {
      fn(0, i, std::min(i + chunk, count));
    }
    return;
  }

  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      for (;;) {
        size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= count) return;
        fn(t, begin, std::min(begin + chunk, count));
      }
    });
  }
  for (auto& w : workers) w.join();
}

void ParallelForWorker(
    size_t count, const std::function<void(unsigned, size_t)>& fn,
    unsigned num_threads) {
  ParallelForChunked(
      count, /*chunk=*/1,
      [&fn](unsigned worker, size_t begin, size_t) { fn(worker, begin); },
      num_threads);
}

}  // namespace airindex
