#ifndef AIRINDEX_SIM_EVENT_ENGINE_H_
#define AIRINDEX_SIM_EVENT_ENGINE_H_

#include <cstdint>
#include <span>
#include <utility>

#include "broadcast/channel.h"
#include "broadcast/station.h"
#include "core/air_system.h"
#include "graph/graph.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace airindex::sim {

/// The event engine's options: the shared settings plus the station's
/// seed, its sub-channels and the clients' sessions. Here `loss` is the
/// station's physical channel, and a kOnline `schedule` re-plans every
/// `replan_cycles` cycles from the destinations of the queries that have
/// arrived so far; the adopted spec sequence is a pure function of the
/// arrival order, so runs stay bit-identical across thread counts.
struct EventOptions : EngineOptions {
  EventOptions() = default;
  explicit EventOptions(EngineOptions base) : EngineOptions(std::move(base)) {}

  /// One seed for the whole station: unlike the batch engine's per-query
  /// streams, every client shares this loss realization.
  uint64_t station_seed = 0x10552;
  /// Logical sub-channels the station time-multiplexes (clients assigned
  /// round-robin by arrival ordinal — their interleave group).
  uint32_t subchannels = 1;
  /// Client sessions: consecutive runs of `session.queries` workload
  /// queries are posed by one persistent client whose SessionCache
  /// (budgeted by `cache_bytes`) carries decoded segments across them.
  /// queries = 1 with cache_bytes = 0 is the one-shot fleet, byte-identical
  /// to builds without sessions. An online plan runs the one-shot fleet
  /// (callers validate; see CheckEngineCombination).
  workload::WorkloadSpec::SessionSpec session;
  /// Per-client session cache budget in payload bytes (0 = caching off).
  size_t cache_bytes = 0;
};

/// The discrete-event shared-channel engine. Where sim::Simulator replays a
/// private channel per query (every client pretends the cycle started for
/// it), EventEngine stands up one broadcast::Station per system — a single
/// timeline started at t=0 and looping forever — and lets the fleet arrive
/// over time: each query's workload::Query::arrival_ms is mapped to the
/// absolute packet position airing at that instant, and the client state
/// machine (the same RunQuery code, via AirQuery::arrival_pos) wakes on the
/// packets it needs from there. Two clients listening to the same packet
/// observe the same loss, so contention effects — wait-for-cycle-boundary,
/// staggered arrivals, rush-hour pileups — emerge from the shared timeline
/// instead of being invented per query.
///
/// Per-query access latency splits into wait_ms (doze before the first
/// useful packet) and listen_ms (retrieval from there), on the station
/// clock. Workloads without an arrival process fall back to phase-derived
/// arrivals: tune_phase * cycle duration, one cycle's worth of arrivals.
///
/// RunSystem plans, then runs one loop. The epoch plan stands up the
/// stations — one for a flat or static schedule, one per adopted spec of
/// an online one, whose clock starts at its epoch — and gives every query
/// its station and its arrival on that clock. One fan-out over client
/// sessions then prices every query against its own epoch's station.
///
/// Determinism: a query's outcome is a pure function of (query, station),
/// never of scheduling — broadcast is one-way, so clients cannot perturb
/// each other's observations even when their listening windows overlap.
/// That is what lets the engine fan the event timeline across threads with
/// results byte-identical to the serial replay (same guarantee, and same
/// per-worker scratch reuse, as sim::Simulator).
class EventEngine {
 public:
  /// `g` must outlive the engine.
  EventEngine(const graph::Graph& g, EventOptions options)
      : graph_(&g), options_(std::move(options)) {
    if (options_.subchannels == 0) options_.subchannels = 1;
  }

  const EventOptions& options() const { return options_; }

  /// The *flat* station this engine would stand up for `sys` (exposed for
  /// tests and for callers that want the clock mapping). Scheduled
  /// stations are built internally — their timeline (and therefore the
  /// clock mapping) depends on the planned spec, whose compiled form must
  /// outlive the station.
  broadcast::Station MakeStation(const core::AirSystem& sys) const;

  /// Runs every workload query as one client arriving on the shared
  /// station timeline of `sys` (one station per epoch of an online plan).
  SystemResult RunSystem(const core::AirSystem& sys,
                         const workload::Workload& w) const;

  /// Runs the workload through each system in turn (one station each; the
  /// timelines share the seed, so co-broadcast systems fade together).
  BatchResult Run(std::span<const core::AirSystem* const> systems,
                  const workload::Workload& w) const;

 private:
  const graph::Graph* graph_;
  EventOptions options_;
};

}  // namespace airindex::sim

#endif  // AIRINDEX_SIM_EVENT_ENGINE_H_
