#ifndef AIRINDEX_SIM_SIMULATOR_H_
#define AIRINDEX_SIM_SIMULATOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broadcast/channel.h"
#include "common/status.h"
#include "core/air_system.h"
#include "device/device_profile.h"
#include "device/metrics.h"
#include "graph/graph.h"
#include "sim/aggregate.h"
#include "sim/schedule_plan.h"
#include "workload/workload.h"

namespace airindex::sim {

/// The settings both engines read — sim::Simulator (per-query private
/// replays) and sim::EventEngine (one shared station timeline) — declared
/// once, so a caller that can run either fills them once and adds only the
/// engine's own fields (SimOptions, EventOptions).
struct EngineOptions {
  /// Worker threads the clients are spread over (0 = one per available
  /// CPU). Results are bit-identical for every thread count.
  unsigned threads = 1;
  /// Channel loss model shared by every client (drop rate, fade bursts,
  /// and the per-bit corruption rate all live here).
  broadcast::LossModel loss = broadcast::LossModel::None();
  /// Station-side forward error correction (parity 0 = off).
  broadcast::FecScheme fec = {};
  /// Per-client device configuration.
  core::ClientOptions client;
  /// Device whose radio/CPU power figures price each query.
  device::DeviceProfile profile = device::DeviceProfile::J2mePhone();
  /// Broadcast bitrate of the channel and of the energy model.
  double bits_per_second = device::kBitrateStatic3G;
  /// Zeroes the wall-clock-measured cpu_ms field of every query so
  /// aggregates are bit-reproducible across runs and thread counts (the
  /// remaining metrics are deterministic by construction).
  bool deterministic = false;
  /// Runs each system's batch this many times and reports the *minimum*
  /// wall time (and the throughput derived from it). Min-of-N is the
  /// standard way to get scheduler- and cache-noise-resistant numbers out
  /// of CI perf runs. Per-query metrics are identical across repetitions
  /// by construction — except cpu_ms, which is wall-clock-measured and
  /// reported from the last repetition (zeroed under `deterministic`).
  unsigned repeat = 1;
  /// Broadcast-disk scheduling of every station/channel. kFlat (default)
  /// keeps the historical timeline bit-identically; kStatic plans one
  /// square-root-rule spec per system from `schedule_demand`; kOnline is
  /// the event engine's re-planning mode (rejected by the batch engine —
  /// per-query private replays have no shared timeline to observe demand
  /// on; see CheckEngineCombination).
  SchedulePolicy schedule;
  /// Per-node destination demand the static planner weights groups by
  /// (workload::DestinationWeights of the run's spec; scenario runs merge
  /// their groups' distributions count-weighted). Empty = uniform, which
  /// plans the flat spec.
  std::vector<double> schedule_demand;
};

/// The batch engine's options: the shared settings plus the seed of its
/// per-query loss streams.
struct SimOptions : EngineOptions {
  SimOptions() = default;
  explicit SimOptions(EngineOptions base) : EngineOptions(std::move(base)) {}

  /// Base seed of the per-query loss streams (see QueryLossSeed).
  uint64_t loss_seed = 0x10552;
};

/// One system's outcome over a workload.
struct SystemResult {
  std::string system;
  std::vector<device::QueryMetrics> per_query;
  Aggregate aggregate;
  /// Wall time of the batch and resulting simulation throughput.
  double wall_seconds = 0.0;
  double queries_per_second = 0.0;
};

/// Known simulation engine names. The one validator behind the scenario
/// spec parser, the scenario runner, and the CLI's --engine flag.
inline bool IsKnownEngine(std::string_view name) {
  return name == "batch" || name == "event";
}

/// The engine-combination rules the scenario runner and the CLI's `run`
/// share: the online schedule needs the event engine, persistent sessions
/// (`sessions`: more than one query per client, or a session cache) need
/// the event engine, and sessions are rejected together with the online
/// schedule. InvalidArgument names the broken rule.
Status CheckEngineCombination(std::string_view engine,
                              const SchedulePolicy& schedule, bool sessions);

/// A whole batch: every requested system over the same workload.
struct BatchResult {
  /// Which engine produced the batch: "batch" (per-query private replay,
  /// sim::Simulator) or "event" (shared station timeline,
  /// sim::EventEngine).
  std::string engine = "batch";
  size_t num_queries = 0;
  /// Effective worker count (an EngineOptions::threads of 0 is resolved to
  /// one per available CPU before being recorded here).
  unsigned threads = 1;
  /// The full channel loss model (not just the rate): bursty runs were
  /// previously reported as if their losses were independent.
  double loss_rate = 0.0;
  uint32_t loss_burst_len = 1;
  /// Per-bit corruption rate of the channel (0 = pristine packets).
  double corrupt_bit = 0.0;
  uint64_t loss_seed = 0;
  /// Logical sub-channels of the event engine's station (1 for the batch
  /// engine's single private channel).
  uint32_t subchannels = 1;
  /// Station FEC code of the run (parity 0 = off).
  broadcast::FecScheme fec = {};
  /// Broadcast-disk scheduling mode of the run ("flat", "static",
  /// "online"). Additive JSON field; legacy readers ignore it.
  std::string schedule_mode = "flat";
  /// Persistent-client sessions of the event engine: queries per session
  /// and the per-client cache budget. 1/0 = the historical one-shot fleet
  /// (both fields are then omitted from the JSON document).
  uint32_t session_queries = 1;
  size_t cache_bytes = 0;
  double wall_seconds = 0.0;
  std::vector<SystemResult> systems;
};

/// Wire name of a SchedulePolicy mode ("flat" / "static" / "online").
inline std::string_view ScheduleModeName(SchedulePolicy::Mode mode) {
  switch (mode) {
    case SchedulePolicy::Mode::kStatic: return "static";
    case SchedulePolicy::Mode::kOnline: return "online";
    case SchedulePolicy::Mode::kFlat: break;
  }
  return "flat";
}

/// The loss-RNG seed of query `index`. Every query gets its own stream,
/// derived by SplitMix64 from the batch seed, so a query's channel replay
/// depends only on (batch seed, query index) — never on which thread ran
/// it or in what order. This is what makes parallel runs bit-identical to
/// serial ones.
uint64_t QueryLossSeed(uint64_t base_seed, size_t index);

/// The parallel simulation engine: fans a workload's clients out across a
/// thread pool against one shared read-only system + cycle. Results are
/// deterministic for every thread count (see QueryLossSeed and the
/// AirSystem thread-safety contract in air_system.h); cpu_ms is the one
/// wall-clock-measured field, zeroed under EngineOptions::deterministic.
/// Each worker reuses one core::QueryScratch across its slice
/// (TimedFanOut), so the steady state runs the allocation-free client path.
class Simulator {
 public:
  /// `g` must outlive the simulator.
  Simulator(const graph::Graph& g, SimOptions options)
      : graph_(&g), options_(std::move(options)) {}

  /// Runs every workload query through `sys`, one simulated client per
  /// query, across the options' threads.
  SystemResult RunSystem(const core::AirSystem& sys,
                         const workload::Workload& w) const;

  /// Runs the workload through each system in turn.
  BatchResult Run(std::span<const core::AirSystem* const> systems,
                  const workload::Workload& w) const;

 private:
  const graph::Graph* graph_;
  SimOptions options_;
};

}  // namespace airindex::sim

#endif  // AIRINDEX_SIM_SIMULATOR_H_
