#include "sim/event_engine.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>

#include "core/query_scratch.h"
#include "sim/fan_out.h"

namespace airindex::sim {

namespace {

/// The station an engine of `o` stands up for `cycle`, transmitting
/// `schedule` (null = the flat cycle).
broadcast::StationOptions StationOptionsOf(
    const EventOptions& o, const broadcast::BroadcastSchedule* schedule) {
  broadcast::StationOptions so;
  so.bits_per_second = o.bits_per_second;
  so.loss = o.loss;
  so.seed = o.station_seed;
  so.subchannels = o.subchannels;
  so.fec = o.fec;
  so.schedule = schedule;
  return so;
}

/// What a run transmits and when each query arrives: the stations, and for
/// every query the station of its arrival epoch and its arrival instant on
/// that station's clock. A flat or static schedule is one station for the
/// whole run; an online schedule adds one per adopted spec. The plan is
/// built serially, before any query runs, so the fan-out over it is a pure
/// per-session map — byte-identical for any thread count.
struct EpochPlan {
  /// What each station transmits (empty: the flat cycle); the stations
  /// point into it.
  std::deque<std::optional<broadcast::BroadcastSchedule>> schedules;
  std::deque<broadcast::Station> stations;
  std::vector<const broadcast::Station*> station_of;
  std::vector<double> arrival_ms;

  const broadcast::Station* AddStation(
      const EventOptions& o, const broadcast::BroadcastCycle& cycle,
      std::optional<broadcast::BroadcastSchedule> schedule) {
    const auto& s = schedules.emplace_back(std::move(schedule));
    stations.emplace_back(&cycle, StationOptionsOf(o, s ? &*s : nullptr));
    return &stations.back();
  }
};

/// Plans `w` on `cycle` under the engine options `o`.
EpochPlan PlanEpochs(const EventOptions& o, bool online, size_t num_nodes,
                     const broadcast::BroadcastCycle& cycle,
                     const workload::Workload& w) {
  EpochPlan plan;
  const size_t n = w.queries.size();
  std::optional<OnlineReplanner> planner;
  if (online) planner.emplace(&cycle, NodeGroups(cycle, num_nodes), o.schedule);
  const broadcast::Station* station = plan.AddStation(
      o, cycle,
      online ? CompileSchedule(cycle, planner->spec())
             : StaticSchedule(cycle, o.schedule_demand, o.schedule));
  plan.station_of.assign(n, station);

  // Arrival instant on the first station's clock: the process timestamp
  // when present, else the phase-derived fallback (one cycle's worth of
  // arrivals).
  plan.arrival_ms.resize(n);
  const double cycle_ms = station->CycleMs();
  for (size_t i = 0; i < n; ++i) {
    const workload::Query& wq = w.queries[i];
    plan.arrival_ms[i] =
        wq.arrival_ms >= 0.0 ? wq.arrival_ms : wq.tune_phase * cycle_ms;
  }
  if (!online) return plan;

  // The epoch walk: arrivals in time order; at each epoch boundary the
  // re-planner may adopt a new spec, which stands up a new station whose
  // clock starts at the boundary. Each query takes the station of its
  // arrival epoch, and its arrival becomes relative to that station's
  // start as it is assigned: an epoch that adopts nothing keeps the
  // station and its clock.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return plan.arrival_ms[a] < plan.arrival_ms[b];
  });
  const auto replan_cycles =
      static_cast<double>(std::max(1u, o.schedule.replan_cycles));
  double epoch_start = 0.0;
  double station_start = 0.0;
  for (size_t k = 0; k < n;) {
    const double epoch_ms = replan_cycles * station->CycleMs();
    // A cycle of no duration never ends its epoch.
    const bool endless = !(epoch_ms > 0.0);
    const double epoch_end = epoch_start + epoch_ms;
    for (; k < n && (endless || plan.arrival_ms[order[k]] < epoch_end); ++k) {
      const size_t i = order[k];
      plan.station_of[i] = station;
      plan.arrival_ms[i] -= station_start;
      planner->ObserveDestination(w.queries[i].target);
    }
    if (k < n && planner->Replan()) {
      station =
          plan.AddStation(o, cycle, CompileSchedule(cycle, planner->spec()));
      station_start = epoch_end;
    }
    epoch_start = epoch_end;
  }
  return plan;
}

}  // namespace

broadcast::Station EventEngine::MakeStation(
    const core::AirSystem& sys) const {
  return broadcast::Station(&sys.cycle(), StationOptionsOf(options_, nullptr));
}

SystemResult EventEngine::RunSystem(const core::AirSystem& sys,
                                    const workload::Workload& w) const {
  SystemResult result;
  result.system = std::string(sys.name());
  result.per_query.resize(w.queries.size());

  const bool online = options_.schedule.mode == SchedulePolicy::Mode::kOnline;
  const EpochPlan plan =
      PlanEpochs(options_, online, graph_->num_nodes(), sys.cycle(), w);
  const bool fec_on = options_.fec.enabled();

  // Persistent-client sessions: a run of session.queries consecutive
  // workload queries becomes one client that stays tuned to its station
  // across them, carrying its SessionCache. A one-shot fleet is sessions
  // of one query with the cache off, and an online plan runs one: a
  // session's later arrivals depend on answers the plan cannot know in
  // advance. Each session is one worker's sequential chain — the arrival
  // of query j+1 is the completion instant of query j plus think time —
  // and sessions are mutually independent, so the fleet fans across
  // threads bit-identically. The per-station decode memo is shared by
  // every co-listening client; it only affects cpu_ms (already outside the
  // determinism contract).
  const size_t n = w.queries.size();
  const uint32_t per_session =
      online ? 1u : std::max<uint32_t>(1u, options_.session.queries);
  const size_t cache_bytes = online ? 0 : options_.cache_bytes;
  core::DecodedSlotCache decode_cache(
      plan.stations.front().channel(0).cycle_version());
  TimedFanOut(
      (n + per_session - 1) / per_session, options_,
      [&](core::QueryScratch& sc, size_t sidx) {
        sc.session.BeginSession(cache_bytes);
        sc.decode_cache = cache_bytes > 0 ? &decode_cache : nullptr;
        const size_t first = sidx * per_session;
        const size_t last = std::min(n, first + per_session);
        const broadcast::Station& station = *plan.station_of[first];
        const uint32_t sub = station.SubchannelOf(sidx);
        double arrival_ms = plan.arrival_ms[first];
        for (size_t i = first; i < last; ++i) {
          core::AirQuery q = core::MakeAirQuery(*graph_, w.queries[i]);
          q.arrival_pos = station.PositionAt(arrival_ms, sub);
          device::QueryMetrics m =
              sys.RunQuery(station.channel(sub), q, options_.client, &sc);
          // Wait starts at the arrival *instant*, not at the packet
          // boundary the client joins: the sub-packet remainder until the
          // joined packet starts transmitting is dozing too. A fully-warm
          // query answers from the cache without the radio ever waking, so
          // it has no such doze.
          const bool silent = m.tuning_packets == 0 && m.latency_packets == 0;
          const double boundary_ms =
              silent ? 0.0 : station.TimeAtMs(q.arrival_pos, sub) - arrival_ms;
          PriceLatency(m, boundary_ms, station.PacketMs(), station.SlotMs(),
                       fec_on);
          result.per_query[i] = m;
          // Next query of the session arrives once this answer landed and
          // the client thought about it.
          arrival_ms += m.wait_ms + m.listen_ms + options_.session.think_ms;
        }
      },
      result);
  return result;
}

BatchResult EventEngine::Run(
    std::span<const core::AirSystem* const> systems,
    const workload::Workload& w) const {
  BatchResult batch =
      RunBatch(options_, systems, w, [&](const core::AirSystem& sys) {
        return RunSystem(sys, w);
      });
  batch.engine = "event";
  batch.loss_seed = options_.station_seed;
  batch.subchannels = options_.subchannels;
  batch.session_queries = std::max(1u, options_.session.queries);
  batch.cache_bytes = options_.cache_bytes;
  return batch;
}

}  // namespace airindex::sim
