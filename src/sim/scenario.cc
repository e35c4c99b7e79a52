#include "sim/scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "device/energy.h"
#include "device/profile_catalog.h"
#include "graph/catalog.h"
#include "sim/event_engine.h"
#include "sim/report.h"

namespace airindex::sim {

namespace {

using jsonutil::GetBoolOr;
using jsonutil::GetNumberOr;
using jsonutil::GetString;
using jsonutil::GetStringOr;
using jsonutil::GetUint64Or;
using jsonutil::JsonValue;
using jsonutil::JsonWriter;

constexpr uint64_t kWorkloadSalt = 0x5EEDB07ull;
constexpr uint64_t kLossSalt = 0x10552AAull;

/// Derived per-group seed: a SplitMix64 mix of (scenario seed, salt, group
/// index) via the engine's QueryLossSeed, so every group samples an
/// independent stream regardless of thread count or run order.
uint64_t DeriveSeed(uint64_t scenario_seed, uint64_t salt,
                    size_t group_index) {
  return QueryLossSeed(scenario_seed ^ salt, group_index);
}

constexpr uint64_t kU32Max = 0xFFFFFFFFull;

/// An array entry stored as uint32_t: a JSON integer in [min, 2^32 - 1].
/// A fraction or an out-of-range value is rejected, not truncated (the
/// CLI's --schedule parser applies the same rule).
Result<uint32_t> U32Entry(const JsonValue& v, uint32_t min,
                          const std::string& field) {
  if (v.type != JsonValue::Type::kNumber || !(v.number >= min) ||
      v.number > static_cast<double>(kU32Max) ||
      v.number != std::floor(v.number)) {
    return Status::InvalidArgument(field + " must hold integers in [" +
                                   std::to_string(min) + ", 4294967295]");
  }
  return static_cast<uint32_t>(v.number);
}

/// GetUint64Or for a field narrower than 64 bits: a value past `max` is
/// rejected by the field's name instead of wrapping in the narrowing cast.
Result<uint64_t> GetUintAtMostOr(const JsonValue& obj, std::string_view key,
                                 uint64_t fallback, uint64_t max,
                                 const std::string& field) {
  AIRINDEX_ASSIGN_OR_RETURN(uint64_t v, GetUint64Or(obj, key, fallback));
  if (v > max) {
    return Status::InvalidArgument(field + " must be at most " +
                                   std::to_string(max));
  }
  return v;
}

}  // namespace

std::vector<std::string> Scenario::EffectiveSystems() const {
  if (!systems.empty()) return systems;
  return {core::kAllSystems.begin(), core::kAllSystems.end()};
}

Result<std::vector<size_t>> ResolveGroupCounts(const Scenario& s) {
  if (s.groups.empty()) {
    return Status::InvalidArgument("scenario has no client groups");
  }
  std::vector<size_t> counts(s.groups.size(), 0);
  size_t explicit_total = 0;
  double weight_total = 0.0;
  for (size_t i = 0; i < s.groups.size(); ++i) {
    const ClientGroupSpec& g = s.groups[i];
    if (g.queries > 0) {
      counts[i] = g.queries;
      explicit_total += g.queries;
    } else {
      // NaN compares false against everything, so `weight <= 0.0` alone
      // would wave a NaN weight through into the largest-remainder math
      // (where it poisons every share). Reject non-finite and <= 0 alike.
      if (!(g.weight > 0.0) || !std::isfinite(g.weight)) {
        return Status::InvalidArgument(
            "group \"" + g.name +
            "\" needs queries > 0 or a finite weight > 0");
      }
      weight_total += g.weight;
    }
  }
  if (weight_total == 0.0) return counts;  // all explicit
  const size_t budget =
      s.total_queries > explicit_total ? s.total_queries - explicit_total : 0;
  if (budget == 0) {
    return Status::InvalidArgument(
        "total_queries leaves no budget for weighted groups");
  }
  // Largest-remainder allocation, stable order on ties.
  size_t assigned = 0;
  std::vector<std::pair<double, size_t>> remainders;
  for (size_t i = 0; i < s.groups.size(); ++i) {
    if (counts[i] > 0) continue;
    const double share = static_cast<double>(budget) *
                         (s.groups[i].weight / weight_total);
    counts[i] = static_cast<size_t>(share);
    assigned += counts[i];
    remainders.emplace_back(share - static_cast<double>(counts[i]), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t r = 0; assigned < budget; r = (r + 1) % remainders.size()) {
    ++counts[remainders[r].second];
    ++assigned;
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) {
      return Status::InvalidArgument("group \"" + s.groups[i].name +
                                     "\" resolved to zero queries; raise "
                                     "total_queries");
    }
  }
  return counts;
}

Result<SystemResult> MergeGroupResults(std::span<const GroupResult> groups,
                                       size_t sys_index) {
  if (groups.empty()) return Status::InvalidArgument("no groups to merge");
  SystemResult fleet;
  std::vector<device::QueryMetrics> metrics;
  std::vector<double> joules;
  for (const GroupResult& gr : groups) {
    if (sys_index >= gr.systems.size()) {
      return Status::InvalidArgument("group \"" + gr.spec.name +
                                     "\" is missing a system result");
    }
    const SystemResult& r = gr.systems[sys_index];
    if (fleet.system.empty()) {
      fleet.system = r.system;
    } else if (fleet.system != r.system) {
      return Status::InvalidArgument("group system order mismatch: " +
                                     fleet.system + " vs " + r.system);
    }
    AIRINDEX_ASSIGN_OR_RETURN(device::DeviceProfile profile,
                              device::FindProfile(gr.spec.profile));
    const device::EnergyModel energy(profile, gr.spec.bits_per_second);
    for (const device::QueryMetrics& m : r.per_query) {
      metrics.push_back(m);
      joules.push_back(energy.QueryJoules(m));
    }
    fleet.wall_seconds += r.wall_seconds;
  }
  fleet.aggregate = Aggregate::Of(fleet.system, metrics, joules);
  fleet.queries_per_second =
      fleet.wall_seconds > 0.0
          ? static_cast<double>(metrics.size()) / fleet.wall_seconds
          : 0.0;
  return fleet;
}

Result<ScenarioResult> ScenarioRunner::Run(const Scenario& s) const {
  AIRINDEX_ASSIGN_OR_RETURN(graph::NetworkSpec spec,
                            graph::FindNetwork(s.network));
  AIRINDEX_ASSIGN_OR_RETURN(graph::Graph g,
                            graph::MakeNetwork(spec, s.scale));
  return Run(s, g);
}

Result<ScenarioResult> ScenarioRunner::Run(const Scenario& s,
                                           const graph::Graph& g) const {
  AIRINDEX_ASSIGN_OR_RETURN(std::vector<size_t> counts,
                            ResolveGroupCounts(s));
  const std::vector<std::string> systems = s.EffectiveSystems();
  if (systems.empty()) {
    return Status::InvalidArgument("scenario lists no systems");
  }
  const std::string engine =
      !options_.engine.empty() ? options_.engine : s.engine;
  if (!IsKnownEngine(engine)) {
    return Status::InvalidArgument("unknown engine \"" + engine +
                                   "\" (batch|event)");
  }
  bool has_sessions = s.cache_bytes > 0;
  for (const ClientGroupSpec& g : s.groups) {
    has_sessions = has_sessions || g.workload.session.queries > 1;
  }
  AIRINDEX_RETURN_IF_ERROR(
      CheckEngineCombination(engine, s.schedule, has_sessions));

  // Static broadcast-disk planning weights groups by the fleet's merged
  // destination distribution: each group's analytic per-node demand,
  // count-weighted. Resolved here (not per group) because every group
  // listens to the *same* station timeline.
  std::vector<double> schedule_demand;
  if (s.schedule.mode == SchedulePolicy::Mode::kStatic) {
    schedule_demand.assign(g.num_nodes(), 0.0);
    size_t total_count = 0;
    for (size_t gi = 0; gi < s.groups.size(); ++gi) {
      workload::WorkloadSpec wspec = s.groups[gi].workload;
      if (wspec.seed == 0) wspec.seed = DeriveSeed(s.seed, kWorkloadSalt, gi);
      const std::vector<double> dw =
          workload::DestinationWeights(g.num_nodes(), wspec);
      for (size_t v = 0; v < dw.size(); ++v) {
        schedule_demand[v] += static_cast<double>(counts[gi]) * dw[v];
      }
      total_count += counts[gi];
    }
    if (total_count > 0) {
      for (double& d : schedule_demand) {
        d /= static_cast<double>(total_count);
      }
    }
  }

  // One build per system across all groups. Every system lives until the
  // run ends, so EB's build reuses NR's border pre-computation.
  std::vector<std::unique_ptr<core::AirSystem>> built;
  for (const std::string& name : systems) {
    AIRINDEX_ASSIGN_OR_RETURN(auto sys,
                              core::BuildSystem(g, name, s.params));
    built.push_back(std::move(sys));
  }

  ScenarioResult result;
  result.scenario = s.name;
  result.network = s.network;
  result.engine = engine;
  result.subchannels = engine == "event" ? std::max(1u, s.subchannels) : 1;
  result.schedule_mode = std::string(ScheduleModeName(s.schedule.mode));
  result.scale = s.scale;

  const auto start = std::chrono::steady_clock::now();
  for (size_t gi = 0; gi < s.groups.size(); ++gi) {
    GroupResult gr;
    gr.spec = s.groups[gi];
    gr.spec.queries = counts[gi];

    AIRINDEX_ASSIGN_OR_RETURN(device::DeviceProfile profile,
                              device::FindProfile(gr.spec.profile));
    if (gr.spec.client.heap_bytes == 0) {
      gr.spec.client.heap_bytes = profile.heap_bytes;
    }

    workload::WorkloadSpec wspec = gr.spec.workload;
    wspec.count = counts[gi];
    if (wspec.seed == 0) wspec.seed = DeriveSeed(s.seed, kWorkloadSalt, gi);
    gr.workload_seed = wspec.seed;
    AIRINDEX_ASSIGN_OR_RETURN(workload::Workload w,
                              workload::GenerateWorkload(g, wspec));

    // Channel seed: the event engine derives one seed for the *whole
    // scenario* (shared-station model — groups with the same loss model
    // and bitrate literally share a channel realization, so the
    // flash-crowd pileup is every group fading together; a group with a
    // different loss model or bitrate still models its own radio
    // environment on the same clock). The batch engine keeps its
    // historical per-group streams.
    const uint64_t channel_seed =
        gr.spec.loss_seed != 0
            ? gr.spec.loss_seed
            : DeriveSeed(s.seed, kLossSalt, engine == "event" ? 0 : gi);
    gr.loss_seed = channel_seed;
    if (engine == "event") {
      EventOptions eo;
      eo.threads = options_.threads;
      eo.repeat = options_.repeat;
      eo.loss = gr.spec.loss;
      eo.fec = gr.spec.fec;
      eo.station_seed = channel_seed;
      eo.subchannels = result.subchannels;
      eo.client = gr.spec.client;
      eo.profile = profile;
      eo.bits_per_second = gr.spec.bits_per_second;
      eo.deterministic = options_.deterministic;
      eo.schedule = s.schedule;
      eo.schedule_demand = schedule_demand;
      eo.encoding = s.params.build.encoding;
      eo.session = wspec.session;
      eo.cache_bytes = s.cache_bytes;
      EventEngine event_engine(g, eo);
      result.threads = event_engine.effective_threads();
      for (const auto& sys : built) {
        gr.systems.push_back(event_engine.RunSystem(*sys, w));
      }
    } else {
      SimOptions so;
      so.threads = options_.threads;
      so.repeat = options_.repeat;
      so.loss = gr.spec.loss;
      so.fec = gr.spec.fec;
      so.loss_seed = channel_seed;
      so.client = gr.spec.client;
      so.profile = profile;
      so.bits_per_second = gr.spec.bits_per_second;
      so.deterministic = options_.deterministic;
      so.schedule = s.schedule;
      so.schedule_demand = schedule_demand;
      so.encoding = s.params.build.encoding;
      Simulator simulator(g, so);
      result.threads = simulator.effective_threads();
      for (const auto& sys : built) {
        gr.systems.push_back(simulator.RunSystem(*sys, w));
      }
    }
    result.num_queries += counts[gi];
    result.groups.push_back(std::move(gr));
  }

  for (size_t si = 0; si < systems.size(); ++si) {
    AIRINDEX_ASSIGN_OR_RETURN(SystemResult fleet,
                              MergeGroupResults(result.groups, si));
    result.fleet.push_back(std::move(fleet));
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

// ---------------------------------------------------------------------------
// Spec JSON
// ---------------------------------------------------------------------------

namespace {

Result<workload::WorkloadSpec> WorkloadSpecFromJson(const JsonValue& obj) {
  workload::WorkloadSpec w = ClientGroupSpec::DefaultWorkload();
  AIRINDEX_ASSIGN_OR_RETURN(uint64_t seed, GetUint64Or(obj, "seed", w.seed));
  w.seed = seed;

  AIRINDEX_ASSIGN_OR_RETURN(std::string dest,
                            GetStringOr(obj, "destinations", "uniform"));
  if (dest == "zipf") {
    w.dest = workload::WorkloadSpec::Dest::kZipf;
  } else if (dest != "uniform") {
    return Status::InvalidArgument("unknown destination distribution \"" +
                                   dest + "\" (uniform|zipf)");
  }
  AIRINDEX_ASSIGN_OR_RETURN(w.zipf_s, GetNumberOr(obj, "zipf_s", w.zipf_s));

  AIRINDEX_ASSIGN_OR_RETURN(std::string source,
                            GetStringOr(obj, "sources", "uniform"));
  if (source == "clustered") {
    w.source = workload::WorkloadSpec::Source::kClustered;
  } else if (source != "uniform") {
    return Status::InvalidArgument("unknown source distribution \"" +
                                   source + "\" (uniform|clustered)");
  }
  AIRINDEX_ASSIGN_OR_RETURN(
      uint64_t cells,
      GetUint64Or(obj, "partition_regions", w.partition_regions));
  if (cells > kU32Max) {
    return Status::InvalidArgument("partition_regions must be <= 4294967295");
  }
  w.partition_regions = static_cast<uint32_t>(cells);
  if (auto it = obj.object.find("source_regions"); it != obj.object.end()) {
    if (it->second.type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("source_regions must be an array");
    }
    for (const JsonValue& v : it->second.array) {
      AIRINDEX_ASSIGN_OR_RETURN(uint32_t region,
                                U32Entry(v, 0, "source_regions"));
      w.source_regions.push_back(region);
    }
  }

  AIRINDEX_ASSIGN_OR_RETURN(std::string phase,
                            GetStringOr(obj, "phases", "uniform"));
  if (phase == "rush-hour") {
    w.phase = workload::WorkloadSpec::Phase::kRushHour;
  } else if (phase != "uniform") {
    return Status::InvalidArgument("unknown phase distribution \"" + phase +
                                   "\" (uniform|rush-hour)");
  }
  AIRINDEX_ASSIGN_OR_RETURN(w.phase_peak,
                            GetNumberOr(obj, "phase_peak", w.phase_peak));
  AIRINDEX_ASSIGN_OR_RETURN(w.phase_width,
                            GetNumberOr(obj, "phase_width", w.phase_width));

  // Additive airindex.sim.scenario/v1 fields: the event engine's arrival
  // process. Older specs without them keep the phase-derived fallback.
  AIRINDEX_ASSIGN_OR_RETURN(std::string arrivals,
                            GetStringOr(obj, "arrivals", "none"));
  AIRINDEX_ASSIGN_OR_RETURN(w.arrival.kind,
                            workload::ParseArrivalKind(arrivals));
  AIRINDEX_ASSIGN_OR_RETURN(
      w.arrival.rate_per_second,
      GetNumberOr(obj, "arrival_rate", w.arrival.rate_per_second));
  AIRINDEX_ASSIGN_OR_RETURN(
      w.arrival.peak_seconds,
      GetNumberOr(obj, "arrival_peak_s", w.arrival.peak_seconds));
  AIRINDEX_ASSIGN_OR_RETURN(
      w.arrival.width_seconds,
      GetNumberOr(obj, "arrival_width_s", w.arrival.width_seconds));
  AIRINDEX_ASSIGN_OR_RETURN(
      w.arrival.peak_multiplier,
      GetNumberOr(obj, "arrival_peak_multiplier",
                  w.arrival.peak_multiplier));
  AIRINDEX_ASSIGN_OR_RETURN(uint64_t arrival_seed,
                            GetUint64Or(obj, "arrival_seed", 0));
  w.arrival.seed = arrival_seed;

  // Additive airindex.sim.scenario/v1 field: persistent-client sessions.
  // Absent = one-shot clients (the historical model).
  if (auto it = obj.object.find("session"); it != obj.object.end()) {
    if (it->second.type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("session must be an object");
    }
    AIRINDEX_ASSIGN_OR_RETURN(
        uint64_t per_session,
        GetUintAtMostOr(it->second, "queries", w.session.queries, kU32Max,
                        "session queries"));
    if (per_session == 0) {
      return Status::InvalidArgument("session queries must be >= 1");
    }
    w.session.queries = static_cast<uint32_t>(per_session);
    AIRINDEX_ASSIGN_OR_RETURN(
        w.session.think_ms,
        GetNumberOr(it->second, "think_ms", w.session.think_ms));
    if (!(w.session.think_ms >= 0.0)) {
      return Status::InvalidArgument("session think_ms must be >= 0");
    }
  }
  return w;
}

Result<ClientGroupSpec> GroupFromJson(const JsonValue& obj) {
  ClientGroupSpec g;
  AIRINDEX_ASSIGN_OR_RETURN(g.name, GetString(obj, "name"));
  AIRINDEX_ASSIGN_OR_RETURN(uint64_t queries,
                            GetUint64Or(obj, "queries", 0));
  g.queries = static_cast<size_t>(queries);
  AIRINDEX_ASSIGN_OR_RETURN(g.weight, GetNumberOr(obj, "weight", g.weight));
  // Reject bad weights here, where the offending group is still a named
  // JSON entry, instead of letting ResolveGroupCounts trip over them (or,
  // pre-fix, letting a NaN slide into the share math).
  if (!std::isfinite(g.weight)) {
    return Status::InvalidArgument("group \"" + g.name +
                                   "\" has a non-finite weight");
  }
  if (g.queries == 0 && !(g.weight > 0.0)) {
    return Status::InvalidArgument("group \"" + g.name +
                                   "\" needs queries > 0 or weight > 0");
  }
  AIRINDEX_ASSIGN_OR_RETURN(g.profile,
                            GetStringOr(obj, "profile", g.profile));
  AIRINDEX_ASSIGN_OR_RETURN(
      g.bits_per_second,
      GetNumberOr(obj, "bits_per_second", g.bits_per_second));
  AIRINDEX_ASSIGN_OR_RETURN(uint64_t loss_seed,
                            GetUint64Or(obj, "loss_seed", 0));
  g.loss_seed = loss_seed;

  if (auto it = obj.object.find("loss"); it != obj.object.end()) {
    if (it->second.type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("loss must be an object");
    }
    AIRINDEX_ASSIGN_OR_RETURN(g.loss.rate,
                              GetNumberOr(it->second, "rate", 0.0));
    AIRINDEX_ASSIGN_OR_RETURN(
        uint64_t burst,
        GetUintAtMostOr(it->second, "burst_len", 1, kU32Max,
                        "loss burst_len"));
    g.loss.burst_len = static_cast<uint32_t>(burst);
    if (g.loss.burst_len == 0) {
      return Status::InvalidArgument("loss burst_len must be >= 1");
    }
    // Additive airindex.sim.scenario/v1 field: per-bit corruption rate of
    // packets that survive erasure (see LossModel::corrupt_bit).
    AIRINDEX_ASSIGN_OR_RETURN(g.loss.corrupt_bit,
                              GetNumberOr(it->second, "corrupt_bit", 0.0));
    if (!(g.loss.corrupt_bit >= 0.0) || g.loss.corrupt_bit >= 1.0) {
      return Status::InvalidArgument(
          "loss corrupt_bit must be in [0, 1)");
    }
  }

  // Additive airindex.sim.scenario/v1 field: station-side FEC for this
  // group's channel. Absent = no parity (plain next-cycle repair).
  if (auto it = obj.object.find("fec"); it != obj.object.end()) {
    if (it->second.type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("fec must be an object");
    }
    AIRINDEX_ASSIGN_OR_RETURN(
        uint64_t data,
        GetUintAtMostOr(it->second, "data_per_group", g.fec.data_per_group,
                        kU32Max, "fec data_per_group"));
    AIRINDEX_ASSIGN_OR_RETURN(
        uint64_t parity,
        GetUintAtMostOr(it->second, "parity_per_group",
                        g.fec.parity_per_group, kU32Max,
                        "fec parity_per_group"));
    g.fec.data_per_group = static_cast<uint32_t>(data);
    g.fec.parity_per_group = static_cast<uint32_t>(parity);
    if (!g.fec.Valid()) {
      return Status::InvalidArgument(
          "fec needs 2 <= data_per_group <= 64 and parity_per_group <= "
          "data_per_group");
    }
  }

  if (auto it = obj.object.find("client"); it != obj.object.end()) {
    if (it->second.type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("client must be an object");
    }
    const JsonValue& c = it->second;
    AIRINDEX_ASSIGN_OR_RETURN(uint64_t heap,
                              GetUint64Or(c, "heap_bytes", 0));
    g.client.heap_bytes = static_cast<size_t>(heap);
    AIRINDEX_ASSIGN_OR_RETURN(
        g.client.memory_bound,
        GetBoolOr(c, "memory_bound", g.client.memory_bound));
    AIRINDEX_ASSIGN_OR_RETURN(
        g.client.cross_border_opt,
        GetBoolOr(c, "cross_border_opt", g.client.cross_border_opt));
    AIRINDEX_ASSIGN_OR_RETURN(
        uint64_t repair,
        GetUintAtMostOr(c, "max_repair_cycles",
                        static_cast<uint64_t>(g.client.max_repair_cycles),
                        std::numeric_limits<int>::max(),
                        "client max_repair_cycles"));
    g.client.max_repair_cycles = static_cast<int>(repair);
    AIRINDEX_ASSIGN_OR_RETURN(
        g.client.repair_header,
        GetBoolOr(c, "repair_header", g.client.repair_header));
  }

  if (auto it = obj.object.find("workload"); it != obj.object.end()) {
    if (it->second.type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("workload must be an object");
    }
    AIRINDEX_ASSIGN_OR_RETURN(g.workload,
                              WorkloadSpecFromJson(it->second));
  }
  return g;
}

Result<SchedulePolicy> ScheduleFromJson(const JsonValue& obj) {
  SchedulePolicy p;
  AIRINDEX_ASSIGN_OR_RETURN(std::string mode, GetStringOr(obj, "mode", "flat"));
  if (mode == "flat") {
    p.mode = SchedulePolicy::Mode::kFlat;
  } else if (mode == "disks" || mode == "static") {
    p.mode = SchedulePolicy::Mode::kStatic;
  } else if (mode == "online") {
    p.mode = SchedulePolicy::Mode::kOnline;
  } else {
    return Status::InvalidArgument("unknown schedule mode \"" + mode +
                                   "\" (flat|disks|online)");
  }
  AIRINDEX_ASSIGN_OR_RETURN(uint64_t disks,
                            GetUint64Or(obj, "disks", p.disks));
  if (disks == 0 || disks > 16) {
    return Status::InvalidArgument("schedule disks must be in [1, 16]");
  }
  p.disks = static_cast<uint32_t>(disks);
  if (auto it = obj.object.find("rates"); it != obj.object.end()) {
    if (it->second.type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("schedule rates must be an array");
    }
    for (const JsonValue& v : it->second.array) {
      AIRINDEX_ASSIGN_OR_RETURN(uint32_t rate,
                                U32Entry(v, 1, "schedule rates"));
      p.rates.push_back(rate);
    }
    if (p.rates.size() != p.disks) {
      return Status::InvalidArgument(
          "schedule rates must list one spin per disk");
    }
  }
  AIRINDEX_ASSIGN_OR_RETURN(
      uint64_t replan, GetUint64Or(obj, "replan_cycles", p.replan_cycles));
  if (replan == 0 || replan > kU32Max) {
    return Status::InvalidArgument(
        "schedule replan_cycles must be in [1, 4294967295]");
  }
  p.replan_cycles = static_cast<uint32_t>(replan);
  AIRINDEX_ASSIGN_OR_RETURN(p.decay, GetNumberOr(obj, "decay", p.decay));
  if (!(p.decay >= 0.0) || p.decay > 1.0) {
    return Status::InvalidArgument("schedule decay must be in [0, 1]");
  }
  AIRINDEX_ASSIGN_OR_RETURN(p.hysteresis,
                            GetNumberOr(obj, "hysteresis", p.hysteresis));
  if (!(p.hysteresis >= 0.0) || p.hysteresis >= 1.0) {
    return Status::InvalidArgument("schedule hysteresis must be in [0, 1)");
  }
  AIRINDEX_ASSIGN_OR_RETURN(p.min_skew,
                            GetNumberOr(obj, "min_skew", p.min_skew));
  if (!(p.min_skew >= 0.0)) {
    return Status::InvalidArgument("schedule min_skew must be >= 0");
  }
  return p;
}

Result<core::SystemParams> ParamsFromJson(const JsonValue& obj) {
  core::SystemParams p;
  auto read = [&](std::string_view key, uint32_t* field) -> Status {
    AIRINDEX_ASSIGN_OR_RETURN(
        uint64_t v, GetUintAtMostOr(obj, key, *field, kU32Max,
                                    "params " + std::string(key)));
    *field = static_cast<uint32_t>(v);
    return Status::OK();
  };
  AIRINDEX_RETURN_IF_ERROR(read("arcflag_regions", &p.arcflag_regions));
  AIRINDEX_RETURN_IF_ERROR(read("eb_regions", &p.eb_regions));
  AIRINDEX_RETURN_IF_ERROR(read("nr_regions", &p.nr_regions));
  AIRINDEX_RETURN_IF_ERROR(read("landmarks", &p.landmarks));
  AIRINDEX_RETURN_IF_ERROR(read("hiti_regions", &p.hiti_regions));
  return p;
}

}  // namespace

Result<Scenario> ScenarioFromJson(std::string_view json) {
  AIRINDEX_ASSIGN_OR_RETURN(JsonValue root, jsonutil::ParseJson(json));
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("scenario root must be a JSON object");
  }
  AIRINDEX_ASSIGN_OR_RETURN(std::string schema, GetString(root, "schema"));
  if (schema != kScenarioSchema) {
    return Status::InvalidArgument("unsupported scenario schema " + schema);
  }

  Scenario s;
  AIRINDEX_ASSIGN_OR_RETURN(s.name, GetString(root, "name"));
  AIRINDEX_ASSIGN_OR_RETURN(s.description,
                            GetStringOr(root, "description", ""));
  AIRINDEX_ASSIGN_OR_RETURN(s.network,
                            GetStringOr(root, "network", s.network));
  AIRINDEX_ASSIGN_OR_RETURN(s.scale, GetNumberOr(root, "scale", s.scale));
  AIRINDEX_ASSIGN_OR_RETURN(s.seed, GetUint64Or(root, "seed", s.seed));
  AIRINDEX_ASSIGN_OR_RETURN(uint64_t total,
                            GetUint64Or(root, "total_queries",
                                        s.total_queries));
  s.total_queries = static_cast<size_t>(total);
  // Additive in-schema fields: engine selection and sub-channel sharding.
  AIRINDEX_ASSIGN_OR_RETURN(s.engine, GetStringOr(root, "engine", s.engine));
  if (!IsKnownEngine(s.engine)) {
    return Status::InvalidArgument("unknown engine \"" + s.engine +
                                   "\" (batch|event)");
  }
  AIRINDEX_ASSIGN_OR_RETURN(
      uint64_t subs,
      GetUintAtMostOr(root, "subchannels", s.subchannels, kU32Max,
                      "subchannels"));
  if (subs == 0) {
    return Status::InvalidArgument("subchannels must be >= 1");
  }
  s.subchannels = static_cast<uint32_t>(subs);

  // Additive airindex.sim.scenario/v1 field: broadcast-disk scheduling.
  // Absent = flat (the historical timeline).
  if (auto it = root.object.find("schedule"); it != root.object.end()) {
    if (it->second.type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("schedule must be an object");
    }
    AIRINDEX_ASSIGN_OR_RETURN(s.schedule, ScheduleFromJson(it->second));
  }

  // Additive airindex.sim.scenario/v1 field: per-client session-cache
  // budget. Absent = no cache (the historical stateless client).
  if (auto it = root.object.find("cache"); it != root.object.end()) {
    if (it->second.type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("cache must be an object");
    }
    AIRINDEX_ASSIGN_OR_RETURN(uint64_t bytes,
                              GetUint64Or(it->second, "bytes", 0));
    s.cache_bytes = static_cast<size_t>(bytes);
  }

  if (auto it = root.object.find("systems"); it != root.object.end()) {
    if (it->second.type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("systems must be an array");
    }
    for (const JsonValue& v : it->second.array) {
      if (v.type != JsonValue::Type::kString) {
        return Status::InvalidArgument("systems must hold strings");
      }
      s.systems.push_back(v.string);
    }
  }
  if (auto it = root.object.find("params"); it != root.object.end()) {
    if (it->second.type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("params must be an object");
    }
    AIRINDEX_ASSIGN_OR_RETURN(s.params, ParamsFromJson(it->second));
  }

  auto it = root.object.find("groups");
  if (it == root.object.end() ||
      it->second.type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("missing groups array");
  }
  for (const JsonValue& entry : it->second.array) {
    if (entry.type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("group entry must be an object");
    }
    AIRINDEX_ASSIGN_OR_RETURN(ClientGroupSpec g, GroupFromJson(entry));
    s.groups.push_back(std::move(g));
  }
  if (s.groups.empty()) {
    return Status::InvalidArgument("scenario has no client groups");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

std::string ScenarioToText(const ScenarioResult& r) {
  std::string out;
  char line[320];
  std::snprintf(line, sizeof(line),
                "# scenario %s on %s (scale %.2f): %zu queries, %zu "
                "group(s), %u thread(s)\n",
                r.scenario.c_str(), r.network.c_str(), r.scale,
                r.num_queries, r.groups.size(), r.threads);
  out += line;
  if (r.engine != "batch") {
    if (r.subchannels > 1) {
      std::snprintf(line, sizeof(line),
                    "# engine %s (%u sub-channels)\n", r.engine.c_str(),
                    r.subchannels);
    } else {
      std::snprintf(line, sizeof(line), "# engine %s\n", r.engine.c_str());
    }
    out += line;
  }
  if (r.schedule_mode != "flat") {
    std::snprintf(line, sizeof(line), "# schedule %s\n",
                  r.schedule_mode.c_str());
    out += line;
  }
  for (const GroupResult& gr : r.groups) {
    if (gr.spec.loss.burst_len > 1) {
      std::snprintf(line, sizeof(line),
                    "\n## group %s: %zu queries, profile=%s, %.0f kbps, "
                    "loss=%.2f%% (bursts of %u)\n",
                    gr.spec.name.c_str(), gr.spec.queries,
                    gr.spec.profile.c_str(),
                    gr.spec.bits_per_second / 1000.0,
                    gr.spec.loss.rate * 100.0, gr.spec.loss.burst_len);
    } else {
      std::snprintf(line, sizeof(line),
                    "\n## group %s: %zu queries, profile=%s, %.0f kbps, "
                    "loss=%.2f%%\n",
                    gr.spec.name.c_str(), gr.spec.queries,
                    gr.spec.profile.c_str(),
                    gr.spec.bits_per_second / 1000.0,
                    gr.spec.loss.rate * 100.0);
    }
    out += line;
    if (gr.spec.fec.enabled()) {
      std::snprintf(line, sizeof(line),
                    "##   fec: %u data + %u parity per group\n",
                    gr.spec.fec.data_per_group, gr.spec.fec.parity_per_group);
      out += line;
    }
    if (gr.spec.loss.corrupt_bit > 0.0) {
      std::snprintf(line, sizeof(line), "##   corrupt_bit: %.2e\n",
                    gr.spec.loss.corrupt_bit);
      out += line;
    }
    detail::AppendSystemTable(out, gr.systems);
  }
  std::snprintf(line, sizeof(line), "\n## fleet (%zu queries)\n",
                r.num_queries);
  out += line;
  detail::AppendSystemTable(out, r.fleet);
  std::snprintf(line, sizeof(line), "# wall %.3f s total\n",
                r.wall_seconds);
  out += line;
  return out;
}

std::string ScenarioReportToJson(const ScenarioResult& r) {
  JsonWriter w;
  w.BeginObject();
  w.Field("schema", kScenarioSchema);
  w.Field("scenario", r.scenario);
  w.Field("network", r.network);
  w.Field("engine", r.engine);
  w.Field("subchannels", static_cast<uint64_t>(r.subchannels));
  // Additive field, written only for scheduled runs — flat reports stay
  // byte-identical to pre-scheduler builds.
  if (r.schedule_mode != "flat") w.Field("schedule", r.schedule_mode);
  w.Field("scale", r.scale);
  w.Field("num_queries", static_cast<uint64_t>(r.num_queries));
  w.Field("threads", static_cast<uint64_t>(r.threads));
  w.Field("wall_seconds", r.wall_seconds);
  w.BeginArray("groups");
  for (const GroupResult& gr : r.groups) {
    w.BeginObject();
    w.Field("group", gr.spec.name);
    w.Field("queries", static_cast<uint64_t>(gr.spec.queries));
    w.Field("profile", gr.spec.profile);
    w.Field("bits_per_second", gr.spec.bits_per_second);
    w.Field("loss_rate", gr.spec.loss.rate);
    w.Field("loss_burst_len", static_cast<uint64_t>(gr.spec.loss.burst_len));
    // Additive airindex.sim.scenario/v1 fields, written only when the
    // channel actually corrupts or codes — clean-channel reports stay
    // byte-identical to pre-FEC builds.
    if (gr.spec.loss.corrupt_bit > 0.0) {
      w.Field("corrupt_bit", gr.spec.loss.corrupt_bit);
    }
    if (gr.spec.fec.enabled()) {
      w.Field("fec_data", static_cast<uint64_t>(gr.spec.fec.data_per_group));
      w.Field("fec_parity",
              static_cast<uint64_t>(gr.spec.fec.parity_per_group));
    }
    w.Field("loss_seed", static_cast<uint64_t>(gr.loss_seed));
    w.Field("workload_seed", static_cast<uint64_t>(gr.workload_seed));
    w.BeginArray("systems");
    for (const SystemResult& sr : gr.systems) {
      detail::WriteSystemEntry(w, sr);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.BeginArray("fleet");
  for (const SystemResult& sr : r.fleet) detail::WriteSystemEntry(w, sr);
  w.EndArray();
  w.EndObject();
  std::string out = std::move(w).Take();
  out += '\n';
  return out;
}

}  // namespace airindex::sim
