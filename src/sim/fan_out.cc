#include "sim/fan_out.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "device/energy.h"

namespace airindex::sim {

void TimedFanOut(
    size_t units, const EngineOptions& options,
    const std::function<void(core::QueryScratch&, size_t)>& body,
    SystemResult& result) {
  const unsigned threads = options.threads;
  std::vector<core::QueryScratch> scratch(ResolveWorkers(units, threads));
  double best_wall = 0.0;
  for (unsigned rep = 0; rep < std::max(1u, options.repeat); ++rep) {
    const auto start = std::chrono::steady_clock::now();
    ParallelForWorker(
        units,
        [&](unsigned worker, size_t unit) { body(scratch[worker], unit); },
        threads);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    best_wall = rep == 0 ? wall : std::min(best_wall, wall);
  }
  if (options.deterministic) {
    for (device::QueryMetrics& m : result.per_query) m.cpu_ms = 0.0;
  }
  result.wall_seconds = best_wall;
  result.queries_per_second =
      best_wall > 0.0 ? static_cast<double>(result.per_query.size()) / best_wall
                      : 0.0;
  result.aggregate = Aggregate::Of(
      result.system, result.per_query,
      device::EnergyModel(options.profile, options.bits_per_second));
}

BatchResult RunBatch(
    const EngineOptions& options,
    std::span<const core::AirSystem* const> systems,
    const workload::Workload& w,
    const std::function<SystemResult(const core::AirSystem&)>& run_system) {
  BatchResult batch;
  batch.num_queries = w.queries.size();
  batch.threads = ResolveThreads(options.threads);
  batch.loss_rate = options.loss.rate;
  batch.loss_burst_len = options.loss.burst_len;
  batch.corrupt_bit = options.loss.corrupt_bit;
  batch.fec = options.fec;
  batch.schedule_mode = std::string(ScheduleModeName(options.schedule.mode));
  const auto start = std::chrono::steady_clock::now();
  for (const core::AirSystem* sys : systems) {
    batch.systems.push_back(run_system(*sys));
  }
  batch.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return batch;
}

void PriceLatency(device::QueryMetrics& m, double boundary_ms, double pkt_ms,
                  double slot_ms, bool fec_on) {
  if (fec_on) {
    m.wait_ms = (boundary_ms > 0.0 ? boundary_ms : 0.0) +
                static_cast<double>(m.wait_slots) * slot_ms;
    m.listen_ms =
        static_cast<double>(m.latency_slots - m.wait_slots) * slot_ms;
  } else {
    m.wait_ms = (boundary_ms > 0.0 ? boundary_ms : 0.0) +
                static_cast<double>(m.wait_packets) * pkt_ms;
    m.listen_ms =
        static_cast<double>(m.latency_packets - m.wait_packets) * pkt_ms;
  }
}

}  // namespace airindex::sim
