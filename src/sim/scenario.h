#ifndef AIRINDEX_SIM_SCENARIO_H_
#define AIRINDEX_SIM_SCENARIO_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "broadcast/channel.h"
#include "common/result.h"
#include "core/systems.h"
#include "device/device_profile.h"
#include "graph/graph.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace airindex::sim {

/// Identifier stamped into scenario spec files and scenario reports.
/// Both forms carry the same schema tag; a spec has a "groups" array of
/// client-group specs, a report additionally has a "fleet" array of
/// aggregate entries.
inline constexpr std::string_view kScenarioSchema =
    "airindex.sim.scenario/v1";

/// One homogeneous slice of the client fleet: how many clients, what they
/// ask (workload distribution), on what device, over what channel.
struct ClientGroupSpec {
  std::string name;
  /// Explicit query count; 0 allocates a share of Scenario::total_queries
  /// proportional to `weight`.
  size_t queries = 0;
  double weight = 1.0;
  /// Query distribution. `workload.count` and, when left 0, `workload.seed`
  /// are resolved at compile time (count from queries/weight, seed derived
  /// from the scenario seed and group index).
  workload::WorkloadSpec workload = DefaultWorkload();
  /// Named device profile (see device::ProfileCatalog()).
  std::string profile = "j2me";
  /// Broadcast bitrate this group's clients listen at.
  double bits_per_second = device::kBitrateStatic3G;
  /// Channel loss model: independent (burst_len 1) or bursty, plus the
  /// optional corrupting-bit rate (loss.corrupt_bit).
  broadcast::LossModel loss = broadcast::LossModel::None();
  /// Loss stream seed; 0 derives one from the scenario seed + group index.
  uint64_t loss_seed = 0;
  /// Station-side forward error correction this group listens under
  /// (parity 0 = plain next-cycle repair). Additive schema field.
  broadcast::FecScheme fec = {};
  /// Client algorithm options. A heap_bytes of 0 means "the device
  /// profile's heap" — the common case for named-profile groups.
  core::ClientOptions client = DefaultClient();

  static workload::WorkloadSpec DefaultWorkload() {
    workload::WorkloadSpec w;
    w.seed = 0;  // derive from the scenario seed
    return w;
  }
  static core::ClientOptions DefaultClient() {
    core::ClientOptions c;
    c.heap_bytes = 0;  // the device profile's heap
    return c;
  }
};

/// A declarative experiment: one network, the systems under test, and a
/// heterogeneous fleet of client groups. Parseable from JSON
/// (ScenarioFromJson) and shipped built-in via scenario_catalog.h.
struct Scenario {
  std::string name;
  std::string description;
  /// Catalog network (graph::FindNetwork) and generator scale.
  std::string network = "Germany";
  double scale = 0.1;
  /// Base seed: per-group workload and loss seeds derive from it.
  uint64_t seed = 20100913;
  /// Fleet-wide query budget split over groups without explicit counts.
  size_t total_queries = 64;
  /// Simulation engine: "batch" (per-query private replay) or "event"
  /// (shared station timeline with arrival processes). Additive schema
  /// field; the CLI can override it per run.
  std::string engine = "batch";
  /// Logical sub-channels of the event engine's station (ignored by the
  /// batch engine).
  uint32_t subchannels = 1;
  /// Broadcast-disk scheduling of every station (additive schema field:
  /// `schedule` object with mode "flat" | "disks" | "online"). Static
  /// demand is derived from the fleet's merged destination distribution;
  /// online mode requires the event engine.
  SchedulePolicy schedule;
  /// Per-client session-cache budget in bytes (additive schema field:
  /// `cache` object with a `bytes` member). 0 = no cache. Event engine
  /// only; pairs with the groups' workload `session` blocks.
  size_t cache_bytes = 0;
  /// Systems under test, paper names. Empty = all seven.
  std::vector<std::string> systems;
  core::SystemParams params;
  std::vector<ClientGroupSpec> groups;

  /// The systems list with the all-seven default applied.
  std::vector<std::string> EffectiveSystems() const;
};

/// One group's outcome: the resolved spec (queries filled in), the derived
/// seeds, and per-system results carrying per-query metrics + aggregates.
struct GroupResult {
  ClientGroupSpec spec;
  uint64_t workload_seed = 0;
  uint64_t loss_seed = 0;
  std::vector<SystemResult> systems;
};

/// A whole scenario run: per-group results plus the fleet-wide merge
/// (per-query samples concatenated across groups, energy priced per
/// group's device/bitrate — see MergeGroupResults).
struct ScenarioResult {
  std::string scenario;
  std::string network;
  /// Engine the run used ("batch" or "event") and, for event runs, the
  /// station's sub-channel count.
  std::string engine = "batch";
  uint32_t subchannels = 1;
  /// Broadcast-disk scheduling mode of the run ("flat"/"static"/"online").
  std::string schedule_mode = "flat";
  double scale = 0.0;
  size_t num_queries = 0;
  unsigned threads = 1;
  double wall_seconds = 0.0;
  std::vector<GroupResult> groups;
  std::vector<SystemResult> fleet;
};

/// Resolves every group's query count: explicit counts are kept, the rest
/// of `total_queries` is split by weight (largest remainder, stable order;
/// every weighted group gets at least one query when any budget remains).
Result<std::vector<size_t>> ResolveGroupCounts(const Scenario& s);

/// Fleet-wide merge of per-group results for system index `sys_index` of
/// every group: concatenates the per-query metrics, prices each group's
/// queries under that group's device/bitrate, and aggregates the combined
/// samples. This is the runner's fleet path, exposed so tests can verify
/// fleet == merge(groups) independently.
Result<SystemResult> MergeGroupResults(std::span<const GroupResult> groups,
                                       size_t sys_index);

/// Executes scenarios: compiles groups into workloads, builds each system
/// once across all groups with core::BuildSystem, fans every group
/// through the run's engine (sim::Simulator or sim::EventEngine), and
/// merges the fleet view.
class ScenarioRunner {
 public:
  struct RunOptions {
    /// Worker threads (0 = one per available CPU). Aggregates are
    /// bit-identical for every thread count.
    unsigned threads = 1;
    /// Zero the wall-clock cpu_ms field for bit-reproducible aggregates.
    bool deterministic = false;
    /// Run each group's batch N times, reporting min-of-N wall time (see
    /// EngineOptions::repeat).
    unsigned repeat = 1;
    /// Engine override: "batch" or "event"; empty uses the scenario's own
    /// engine field.
    std::string engine;
  };

  ScenarioRunner() = default;
  explicit ScenarioRunner(RunOptions options) : options_(options) {}

  /// Loads the scenario's catalog network and runs on it.
  Result<ScenarioResult> Run(const Scenario& s) const;

  /// Runs against a caller-owned graph. The systems are built here and
  /// die with this call.
  Result<ScenarioResult> Run(const Scenario& s, const graph::Graph& g) const;

 private:
  RunOptions options_;
};

/// Parses a scenario spec (schema airindex.sim.scenario/v1). Unknown
/// fields are ignored; missing optional fields keep their defaults.
Result<Scenario> ScenarioFromJson(std::string_view json);

/// Human-readable report: one table per group plus the fleet table.
std::string ScenarioToText(const ScenarioResult& r);

/// Scenario report JSON (schema airindex.sim.scenario/v1): per-group and
/// fleet aggregate entries, field-compatible with batch system entries.
std::string ScenarioReportToJson(const ScenarioResult& r);

}  // namespace airindex::sim

#endif  // AIRINDEX_SIM_SCENARIO_H_
