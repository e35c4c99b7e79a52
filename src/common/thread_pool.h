#ifndef AIRINDEX_COMMON_THREAD_POOL_H_
#define AIRINDEX_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace airindex {

/// The "0 = one per available CPU" thread-count policy on its own (at
/// least 1, no per-call clamp): what the simulation engines report as
/// their effective worker count. The available CPUs are those in the
/// calling thread's affinity mask (so a `taskset` pin counts), or the
/// machine's hardware concurrency where the mask cannot be read.
unsigned ResolveThreads(unsigned num_threads);

/// Worker count ParallelForWorker/ParallelForChunked will actually use for
/// `count` iterations and a requested `num_threads` (0 = one per available
/// CPU, clamped to `count`, at least 1). Callers that keep
/// per-worker state (e.g. one core::QueryScratch per worker) size it with
/// this.
unsigned ResolveWorkers(size_t count, unsigned num_threads);

/// Runs `fn(worker, i)` for every i in [0, count) across up to
/// `num_threads` worker threads (0 = one per available CPU), handing `fn`
/// the worker index in [0, ResolveWorkers(count, num_threads)). Blocks
/// until all iterations finish. The worker index is stable for the
/// duration of the call, so `fn` may index per-worker scratch with it;
/// which iterations land on which worker is scheduling-dependent, so
/// results must not depend on the partition (see the AirSystem scratch
/// contract). ParallelForChunked with a chunk of 1.
void ParallelForWorker(
    size_t count, const std::function<void(unsigned, size_t)>& fn,
    unsigned num_threads = 0);

/// Chunked work-stealing loop: workers repeatedly claim ranges of up to
/// `chunk` consecutive iterations from a shared atomic cursor and run
/// `fn(worker, begin, end)` for each claimed range. Compared to the
/// per-iteration ParallelForWorker this amortises the cursor contention
/// over `chunk` iterations while still letting fast workers steal work from
/// slow ones — the right shape when per-iteration cost is skewed (e.g. one
/// Dijkstra per border node, where dense regions cost far more than sparse
/// ones). A `chunk` of 0 is treated as 1. Like ParallelForWorker, which
/// ranges land on which worker is scheduling-dependent; results must not
/// depend on the partition.
void ParallelForChunked(
    size_t count, size_t chunk,
    const std::function<void(unsigned, size_t, size_t)>& fn,
    unsigned num_threads = 0);

}  // namespace airindex

#endif  // AIRINDEX_COMMON_THREAD_POOL_H_
