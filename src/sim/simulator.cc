#include "sim/simulator.h"

#include <optional>

#include "core/query_scratch.h"
#include "sim/fan_out.h"

namespace airindex::sim {

Status CheckEngineCombination(std::string_view engine,
                              const SchedulePolicy& schedule,
                              bool sessions) {
  const bool online = schedule.mode == SchedulePolicy::Mode::kOnline;
  if (online && engine != "event") {
    return Status::InvalidArgument(
        "the online schedule needs the event engine (re-planning observes "
        "demand on the shared station timeline)");
  }
  if (sessions && engine != "event") {
    return Status::InvalidArgument(
        "persistent-client sessions and session caches need the event "
        "engine (the batch engine replays every query on a private channel, "
        "so there is no client to keep warm)");
  }
  if (sessions && online) {
    return Status::InvalidArgument(
        "persistent-client sessions and session caches are not supported "
        "with the online schedule (its epoch plan fixes every arrival up "
        "front, and a session's later arrivals depend on its answers)");
  }
  return Status::OK();
}

uint64_t QueryLossSeed(uint64_t base_seed, size_t index) {
  // SplitMix64 over the batch seed and the query ordinal.
  uint64_t z = base_seed + 0x9E3779B97f4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

SystemResult Simulator::RunSystem(const core::AirSystem& sys,
                                  const workload::Workload& w) const {
  SystemResult result;
  result.system = std::string(sys.name());
  result.per_query.resize(w.queries.size());

  // Static broadcast-disk schedule: planned once per system, shared
  // read-only by every per-query channel replay. Online mode has no meaning
  // here (no shared timeline); callers reject it before reaching the
  // engine, and a policy that slips through degrades to flat.
  const std::optional<broadcast::BroadcastSchedule> sched =
      StaticSchedule(sys.cycle(), options_.schedule_demand, options_.schedule);
  const broadcast::BroadcastSchedule* schedule =
      sched.has_value() ? &*sched : nullptr;

  // Packet duration on this engine's (single, full-rate) channel; with no
  // shared timeline there is no boundary doze and a slot lasts a packet.
  const double pkt_ms =
      device::PacketSeconds(options_.bits_per_second) * 1000.0;
  const bool fec_on = options_.fec.enabled();

  TimedFanOut(
      w.queries.size(), options_,
      [&](core::QueryScratch& scratch, size_t i) {
        broadcast::BroadcastChannel channel(
            &sys.cycle(), options_.loss,
            QueryLossSeed(options_.loss_seed, i), options_.fec, schedule);
        device::QueryMetrics m =
            sys.RunQuery(channel, core::MakeAirQuery(*graph_, w.queries[i]),
                         options_.client, &scratch);
        PriceLatency(m, 0.0, pkt_ms, pkt_ms, fec_on);
        result.per_query[i] = m;
      },
      result);
  return result;
}

BatchResult Simulator::Run(std::span<const core::AirSystem* const> systems,
                           const workload::Workload& w) const {
  BatchResult batch =
      RunBatch(options_, systems, w, [&](const core::AirSystem& sys) {
        return RunSystem(sys, w);
      });
  batch.loss_seed = options_.loss_seed;
  return batch;
}

}  // namespace airindex::sim
