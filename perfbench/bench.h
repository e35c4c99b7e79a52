#ifndef AIRINDEX_PERFBENCH_BENCH_H_
#define AIRINDEX_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/air_system.h"
#include "graph/graph.h"
#include "sim/event_engine.h"
#include "sim/simulator.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {

namespace core = airindex::core;
namespace graph = airindex::graph;
namespace sim = airindex::sim;
namespace workload = airindex::workload;

/// One benchmark workload: which methods run, on which engine, with how
/// many worker threads, and how many queries one pass holds.
struct WorkloadDef {
  std::string_view name;
  std::vector<std::string_view> methods;
  unsigned threads = 1;
  /// Shared-station event engine with sessions and a lossy channel;
  /// otherwise the lossless batch engine.
  bool lossy_fleet = false;
  /// Queries per method in one pass.
  size_t queries = 0;
  /// The pass is this many GenerateWorkload blocks of queries/blocks each,
  /// with seeds derived from the run's seed (see BuildSetup).
  size_t blocks = 1;
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(std::string_view name);

/// Command-line options of one run.
struct Options {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (empty = do not write).
  std::string trace_out;
};

/// Everything a run's set-up produces. Built in place and never moved: the
/// systems keep pointers into `graph`.
struct Setup {
  graph::Graph graph;
  std::vector<std::unique_ptr<core::AirSystem>> systems;
  std::vector<const core::AirSystem*> system_ptrs;
  workload::Workload workload;
  double seconds = 0.0;
};

/// Network + every BuildSystem + GenerateWorkload, each call under a span
/// (children of `parent`) when `trace` is non-null. Exits the process on a
/// library error.
std::unique_ptr<Setup> BuildSetup(const WorkloadDef& def, uint64_t seed,
                                  Trace* trace, uint64_t parent);

/// Builds `method` on `g` with the workload's set-up thread budget.
std::unique_ptr<core::AirSystem> BuildMethod(const WorkloadDef& def,
                                             const graph::Graph& g,
                                             std::string_view method);

/// One pass of `w` through every system of `setup` on the workload's
/// engine, at `threads` workers.
sim::BatchResult RunPass(const WorkloadDef& def, const Setup& setup,
                         const workload::Workload& w, uint64_t seed,
                         unsigned threads);

/// Event-engine options of the lossy fleet. The station's loss realization
/// is fixed (the library's default station seed) while the run's seed
/// drives the client population: all of a pass's queries share one station
/// timeline, so a per-seed realization would make the fleet's loss tail
/// hinge on a single draw.
sim::EventOptions FleetEventOptions(unsigned threads);

/// Answer check of one pass against the workload's ground truth. Counts
/// queries and failures (not ok, or ok with a wrong distance). Returns an
/// error naming workload, method and query when an ok answer is wrong, or
/// when a lossless workload fails a query.
struct PassCheck {
  size_t attempted = 0;
  size_t failed = 0;
  std::string error;
};
PassCheck CheckAnswers(const WorkloadDef& def, const workload::Workload& w,
                       const sim::BatchResult& batch);

/// Error text when the modeled metrics (everything but the wall-clock
/// cpu_ms) of `got` differ from `want`; empty when identical.
std::string CompareModeled(const WorkloadDef& def, const sim::BatchResult& want,
                           const sim::BatchResult& got);

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
/// Middle value, or the mean of the two middle values; 0 when empty.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMiB();

/// Restricts the process to the first `n` CPUs it may run on, so set-up
/// work that sizes itself by the hardware concurrency uses at most `n`.
void PinToCpus(unsigned n);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints each metric as "name value unit", then the result object as the
/// last line of standard output.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics);

/// Prints `message` to standard error and exits with status 1.
[[noreturn]] void Fail(const std::string& message);

/// The traced run (layers.cc): per-layer metrics.
int RunTraced(const Options& options);

}  // namespace perfbench

#endif  // AIRINDEX_PERFBENCH_BENCH_H_
