#ifndef AIRINDEX_SIM_FAN_OUT_H_
#define AIRINDEX_SIM_FAN_OUT_H_

#include <cstddef>
#include <functional>
#include <span>

#include "core/query_scratch.h"
#include "device/metrics.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace airindex::sim {

/// The engines' one timed fan-out. Gives each of the
/// ResolveWorkers(units, options.threads) workers its own
/// core::QueryScratch, reused across its whole slice and across passes,
/// and runs `body(scratch, unit)` for every unit in [0, units)
/// options.repeat times (at least once). Then fills `result`: wall_seconds
/// is the fastest pass, queries_per_second counts result.per_query over
/// it, every cpu_ms is zeroed under options.deterministic, and aggregate
/// summarizes result.per_query under the options' device and bitrate. A
/// unit is one query or one session; the body writes its queries' slots
/// of result.per_query.
void TimedFanOut(
    size_t units, const EngineOptions& options,
    const std::function<void(core::QueryScratch&, size_t)>& body,
    SystemResult& result);

/// The engines' one Run: fills the BatchResult fields `options` decides
/// (threads, loss model, FEC, schedule mode) and the query count, then runs
/// `run_system` over `systems` in turn, timing the whole loop as the
/// batch's wall_seconds. The caller adds its engine's own fields.
BatchResult RunBatch(
    const EngineOptions& options,
    std::span<const core::AirSystem* const> systems,
    const workload::Workload& w,
    const std::function<SystemResult(const core::AirSystem&)>& run_system);

/// Prices the wait/listen split of a query's latency window on the engine
/// clock. `boundary_ms` is the doze from the arrival instant to the first
/// packet boundary (0 for the batch engine's private replays). With FEC on,
/// the on-air timeline is longer than the logical packet count (parity
/// slots), so the physical-slot window is priced; the FEC-off branch keeps
/// the packet-count formula, bit-identical to builds without FEC.
void PriceLatency(device::QueryMetrics& m, double boundary_ms, double pkt_ms,
                  double slot_ms, bool fec_on);

}  // namespace airindex::sim

#endif  // AIRINDEX_SIM_FAN_OUT_H_
