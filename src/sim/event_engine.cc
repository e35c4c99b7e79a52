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

}  // namespace

broadcast::Station EventEngine::MakeStation(
    const core::AirSystem& sys) const {
  return broadcast::Station(&sys.cycle(), StationOptionsOf(options_, nullptr));
}

SystemResult EventEngine::RunSystem(const core::AirSystem& sys,
                                    const workload::Workload& w) const {
  if (options_.schedule.mode == SchedulePolicy::Mode::kOnline) {
    return RunSystemOnline(sys, w);
  }

  SystemResult result;
  result.system = std::string(sys.name());
  result.per_query.resize(w.queries.size());

  // Static broadcast-disk schedule: planned once from the analytic demand
  // profile and transmitted for the whole run.
  const std::optional<broadcast::BroadcastSchedule> sched =
      StaticSchedule(sys.cycle(), options_.schedule_demand, options_.schedule);
  const broadcast::Station station(
      &sys.cycle(),
      StationOptionsOf(options_, sched.has_value() ? &*sched : nullptr));
  const double pkt_ms = station.PacketMs();
  const double slot_ms = station.SlotMs();
  const double cycle_ms = station.CycleMs();
  const bool fec_on = options_.fec.enabled();

  // Persistent-client sessions: a run of session.queries consecutive
  // workload queries becomes one client that stays tuned to the station
  // across them, carrying its SessionCache. A one-shot fleet is sessions
  // of one query with the cache off. Each session is one worker's
  // sequential chain — the arrival of query j+1 is the completion instant
  // of query j plus think time — and sessions are mutually independent, so
  // the fleet fans across threads bit-identically. The per-station decode
  // memo is shared by every co-listening client; it only affects cpu_ms
  // (already outside the determinism contract).
  const size_t n = w.queries.size();
  const uint32_t per_session =
      std::max<uint32_t>(1u, options_.session.queries);
  core::DecodedSlotCache decode_cache(station.channel(0).cycle_version());
  TimedFanOut(
      (n + per_session - 1) / per_session, options_,
      [&](core::QueryScratch& sc, size_t sidx) {
        sc.session.BeginSession(options_.cache_bytes);
        sc.decode_cache = options_.cache_bytes > 0 ? &decode_cache : nullptr;
        const size_t first = sidx * per_session;
        const size_t last = std::min(n, first + per_session);
        const uint32_t sub = station.SubchannelOf(sidx);
        // Arrival instant on the station clock: the process timestamp when
        // present, else the phase-derived fallback (one cycle's worth of
        // arrivals).
        double arrival_ms = w.queries[first].arrival_ms >= 0.0
                                ? w.queries[first].arrival_ms
                                : w.queries[first].tune_phase * cycle_ms;
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
          PriceLatency(m, boundary_ms, pkt_ms, slot_ms, fec_on);
          if (options_.deterministic) m.cpu_ms = 0.0;
          result.per_query[i] = m;
          // Next query of the session arrives once this answer landed and
          // the client thought about it.
          arrival_ms += m.wait_ms + m.listen_ms + options_.session.think_ms;
        }
      },
      result);
  return result;
}

SystemResult EventEngine::RunSystemOnline(const core::AirSystem& sys,
                                          const workload::Workload& w) const {
  SystemResult result;
  result.system = std::string(sys.name());
  result.per_query.resize(w.queries.size());

  const broadcast::BroadcastCycle& cycle = sys.cycle();
  const size_t n = w.queries.size();
  const bool fec_on = options_.fec.enabled();

  // Epoch plan (serial, deterministic): walk arrivals in time order; at
  // each epoch boundary the re-planner may adopt a new spec, which stands
  // up a new station whose clock restarts at the boundary. Every query is
  // assigned the station of its arrival epoch with an epoch-relative
  // arrival instant, so the parallel phase below is a pure per-query map —
  // byte-identical for any thread count.
  OnlineReplanner planner(&cycle, NodeGroups(cycle, graph_->num_nodes()),
                          options_.schedule);
  std::deque<broadcast::BroadcastSchedule> schedules;
  std::deque<broadcast::Station> stations;
  auto push_station = [&](const broadcast::ScheduleSpec& spec) {
    const broadcast::BroadcastSchedule* schedule = nullptr;
    if (!spec.flat()) {
      auto compiled = broadcast::BroadcastSchedule::Compile(&cycle, spec);
      if (compiled.ok()) {
        schedules.push_back(std::move(compiled).value());
        schedule = &schedules.back();
      }
    }
    stations.emplace_back(&cycle, StationOptionsOf(options_, schedule));
    return &stations.back();
  };
  const broadcast::Station* station = push_station(planner.spec());
  const double flat_cycle_ms = station->CycleMs();

  std::vector<double> arrival(n);
  for (size_t i = 0; i < n; ++i) {
    const workload::Query& wq = w.queries[i];
    arrival[i] =
        wq.arrival_ms >= 0.0 ? wq.arrival_ms : wq.tune_phase * flat_cycle_ms;
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return arrival[a] < arrival[b];
  });

  std::vector<const broadcast::Station*> station_of(n, station);
  std::vector<double> epoch_start_of(n, 0.0);
  const auto replan_cycles =
      static_cast<double>(std::max(1u, options_.schedule.replan_cycles));
  double epoch_start = 0.0;
  size_t k = 0;
  while (k < n) {
    const double epoch_ms = replan_cycles * station->CycleMs();
    if (!(epoch_ms > 0.0)) {
      for (; k < n; ++k) {
        station_of[order[k]] = station;
        epoch_start_of[order[k]] = epoch_start;
      }
      break;
    }
    const double epoch_end = epoch_start + epoch_ms;
    while (k < n && arrival[order[k]] < epoch_end) {
      const size_t i = order[k];
      station_of[i] = station;
      epoch_start_of[i] = epoch_start;
      planner.ObserveDestination(w.queries[i].target);
      ++k;
    }
    if (k == n) break;
    if (planner.Replan()) station = push_station(planner.spec());
    epoch_start = epoch_end;
  }

  TimedFanOut(
      n, options_,
      [&](core::QueryScratch& sc, size_t i) {
        const broadcast::Station& st = *station_of[i];
        const double local_ms = arrival[i] - epoch_start_of[i];
        const uint32_t sub = st.SubchannelOf(i);
        core::AirQuery q = core::MakeAirQuery(*graph_, w.queries[i]);
        q.arrival_pos = st.PositionAt(local_ms, sub);
        device::QueryMetrics m =
            sys.RunQuery(st.channel(sub), q, options_.client, &sc);
        const double boundary_ms = st.TimeAtMs(q.arrival_pos, sub) - local_ms;
        PriceLatency(m, boundary_ms, st.PacketMs(), st.SlotMs(), fec_on);
        if (options_.deterministic) m.cpu_ms = 0.0;
        result.per_query[i] = m;
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
