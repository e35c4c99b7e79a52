// Cross-layer determinism suite for the discrete-event shared-channel
// engine: same seed => byte-identical per-query metrics (including the new
// wait_ms / listen_ms split) across thread counts, plus pinned analytic
// cases where the expected wait is computed from the cycle layout itself.

#include "sim/event_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "broadcast/station.h"
#include "core/systems.h"
#include "device/metrics.h"
#include "sim/simulator.h"
#include "testing/test_graphs.h"
#include "workload/workload.h"

namespace airindex::sim {
namespace {

using testing_support::SmallNetwork;

struct Fixture {
  graph::Graph g;
  std::vector<std::unique_ptr<core::AirSystem>> systems;
  workload::Workload w;
};

const Fixture& SharedFixture() {
  static const Fixture& f = *[] {
    auto* fx = new Fixture();
    fx->g = SmallNetwork(300, 480, 77);
    core::SystemParams params;
    params.arcflag_regions = 8;
    params.eb_regions = 8;
    params.nr_regions = 8;
    params.landmarks = 3;
    params.hiti_regions = 8;
    fx->systems = core::BuildSystems(fx->g, core::kAllSystems, params).value();
    workload::WorkloadSpec spec;
    spec.count = 12;
    spec.seed = 78;
    spec.arrival.kind = workload::ArrivalSpec::Kind::kPoisson;
    spec.arrival.rate_per_second = 30.0;
    fx->w = workload::GenerateWorkload(fx->g, spec).value();
    return fx;
  }();
  return f;
}

EventOptions LossyOptions() {
  EventOptions eo;
  eo.loss = broadcast::LossModel::Independent(0.02);
  eo.station_seed = 0x60551;
  eo.client.max_repair_cycles = 64;
  eo.client.repair_header = true;  // AF must survive the lossy fixture
  eo.deterministic = true;
  return eo;
}

TEST(EventEngineTest, Threads1And4BitIdenticalAcrossAllSystems) {
  const Fixture& f = SharedFixture();
  ASSERT_EQ(f.systems.size(), 7u);
  std::vector<const core::AirSystem*> ptrs;
  for (const auto& sys : f.systems) ptrs.push_back(sys.get());

  EventOptions eo = LossyOptions();
  eo.subchannels = 2;

  eo.threads = 1;
  BatchResult serial = EventEngine(f.g, eo).Run(ptrs, f.w);
  eo.threads = 4;
  BatchResult parallel = EventEngine(f.g, eo).Run(ptrs, f.w);

  EXPECT_EQ(serial.engine, "event");
  EXPECT_EQ(serial.subchannels, 2u);
  ASSERT_EQ(serial.systems.size(), parallel.systems.size());
  for (size_t sidx = 0; sidx < serial.systems.size(); ++sidx) {
    const auto& a = serial.systems[sidx];
    const auto& b = parallel.systems[sidx];
    ASSERT_EQ(a.per_query.size(), b.per_query.size());
    for (size_t i = 0; i < a.per_query.size(); ++i) {
      // QueryMetrics::operator== covers wait_packets / wait_ms /
      // listen_ms, so this pins the whole latency split bit-for-bit.
      EXPECT_EQ(a.per_query[i], b.per_query[i])
          << a.system << " query " << i;
    }
    EXPECT_EQ(a.aggregate, b.aggregate) << a.system;
  }
}

// An online run whose re-planner never adopts a spec stays on its first
// station, which airs the flat schedule, for the whole run: every query
// must be priced exactly as in the flat run, across many epoch boundaries.
// A clock restarted at each boundary would map one instant of the one
// station to different slots in different epochs.
TEST(EventEngineTest, OnlineRunThatNeverAdoptsMatchesTheFlatRun) {
  const Fixture& f = SharedFixture();
  std::vector<const core::AirSystem*> ptrs;
  for (const auto& s : f.systems) ptrs.push_back(s.get());

  // About 48 arrivals over 12 cycles of the longest cycle, so every system
  // crosses several one-cycle epochs.
  EventOptions flat = LossyOptions();
  double longest_ms = 0.0;
  for (const core::AirSystem* sys : ptrs) {
    longest_ms = std::max(
        longest_ms, EventEngine(f.g, flat).MakeStation(*sys).CycleMs());
  }
  ASSERT_GT(longest_ms, 0.0);
  workload::WorkloadSpec spec;
  spec.count = 48;
  spec.seed = 79;
  spec.arrival.kind = workload::ArrivalSpec::Kind::kPoisson;
  spec.arrival.rate_per_second = 4.0 * 1000.0 / longest_ms;
  const workload::Workload w = workload::GenerateWorkload(f.g, spec).value();

  EventOptions online = flat;
  online.schedule.mode = SchedulePolicy::Mode::kOnline;
  online.schedule.replan_cycles = 1;
  online.schedule.min_skew = 1e9;  // no demand is skewed enough to adopt
  const BatchResult want = EventEngine(f.g, flat).Run(ptrs, w);
  const BatchResult got = EventEngine(f.g, online).Run(ptrs, w);
  EXPECT_EQ(got.schedule_mode, "online");
  ASSERT_EQ(got.systems.size(), want.systems.size());
  for (size_t i = 0; i < want.systems.size(); ++i) {
    ASSERT_EQ(got.systems[i].per_query.size(),
              want.systems[i].per_query.size());
    for (size_t q = 0; q < want.systems[i].per_query.size(); ++q) {
      EXPECT_EQ(got.systems[i].per_query[q], want.systems[i].per_query[q])
          << want.systems[i].system << " query " << q;
    }
  }
}

TEST(EventEngineTest, RepeatedRunsAreBitIdentical) {
  const Fixture& f = SharedFixture();
  std::vector<const core::AirSystem*> ptrs = {f.systems[0].get(),
                                              f.systems[1].get()};
  EventOptions eo = LossyOptions();
  eo.threads = 2;
  BatchResult first = EventEngine(f.g, eo).Run(ptrs, f.w);
  BatchResult second = EventEngine(f.g, eo).Run(ptrs, f.w);
  for (size_t sidx = 0; sidx < first.systems.size(); ++sidx) {
    EXPECT_EQ(first.systems[sidx].per_query,
              second.systems[sidx].per_query);
  }
}

// Analytic pin, full-cycle client: a single DJ client on a lossless
// station listens to every packet from the instant it tunes in — wait is
// exactly zero and listen is exactly one cycle, in packets and on the
// station clock in ms.
TEST(EventEngineTest, AnalyticDijkstraFullCycleWait) {
  const Fixture& f = SharedFixture();
  const core::AirSystem& dj = *f.systems[0];
  ASSERT_EQ(dj.name(), "DJ");

  workload::Workload one;
  one.queries.push_back(f.w.queries[0]);
  one.queries[0].arrival_ms = 1234.5;  // mid-packet, mid-cycle

  EventOptions eo;
  eo.deterministic = true;
  EventEngine engine(f.g, eo);
  SystemResult r = engine.RunSystem(dj, one);

  const broadcast::Station station = engine.MakeStation(dj);
  const double pkt_ms = station.PacketMs();
  const uint64_t total = dj.cycle().total_packets();
  ASSERT_EQ(r.per_query.size(), 1u);
  const device::QueryMetrics& m = r.per_query[0];
  EXPECT_TRUE(m.ok);
  EXPECT_EQ(m.wait_packets, 0u);
  EXPECT_EQ(m.latency_packets, total);
  // The only wait a full-cycle client pays is the sub-packet remainder
  // between its arrival instant and the packet boundary it joins.
  const uint64_t join = station.PositionAt(1234.5, 0);
  const double boundary_ms = station.TimeAtMs(join, 0) - 1234.5;
  ASSERT_GT(boundary_ms, 0.0);  // 1234.5 is deliberately mid-packet
  EXPECT_DOUBLE_EQ(m.wait_ms, boundary_ms);
  EXPECT_DOUBLE_EQ(m.listen_ms, static_cast<double>(total) * pkt_ms);
}

// Analytic pin, selective-tuning client: a single NR client with a known
// tune-in position probes one packet, reads the next-index pointer, and
// dozes to that index copy — the expected wait is computable straight
// from the cycle layout.
TEST(EventEngineTest, AnalyticNrIndexWait) {
  const Fixture& f = SharedFixture();
  const core::AirSystem& nr = *f.systems[1];
  ASSERT_EQ(nr.name(), "NR");
  const broadcast::BroadcastCycle& cycle = nr.cycle();
  const uint32_t total = cycle.total_packets();

  EventOptions eo;
  eo.deterministic = true;
  EventEngine engine(f.g, eo);
  const broadcast::Station station = engine.MakeStation(nr);
  const double pkt_ms = station.PacketMs();

  // Pick an arrival that lands strictly inside a non-index segment so the
  // client must probe + doze (packet 1 exists and is never an index start:
  // the cycle begins with local index 0, whose segment spans >= 1 packet,
  // followed by region data).
  const uint64_t tune_pos = 1;
  workload::Workload one;
  one.queries.push_back(f.w.queries[0]);
  one.queries[0].arrival_ms = station.TimeAtMs(tune_pos, 0);

  SystemResult r = engine.RunSystem(nr, one);
  ASSERT_EQ(r.per_query.size(), 1u);
  const device::QueryMetrics& m = r.per_query[0];
  EXPECT_TRUE(m.ok);

  // Expected: the probe at tune_pos reads next_index_offset; the client
  // sleeps to that cycle position (reached from tune_pos + 1) and content
  // starts there.
  const broadcast::PacketView probe =
      cycle.PacketAt(static_cast<uint32_t>(tune_pos % total));
  ASSERT_NE(probe.next_index_offset, 0u) << "packet 1 must not start an "
                                            "index for this pin";
  const uint32_t idx_start = static_cast<uint32_t>(
      (probe.cycle_pos + probe.next_index_offset) % total);
  const uint32_t cur = static_cast<uint32_t>((tune_pos + 1) % total);
  const uint32_t ahead =
      idx_start >= cur ? idx_start - cur : idx_start + total - cur;
  const uint64_t expected_wait = (tune_pos + 1 + ahead) - tune_pos;
  EXPECT_EQ(m.wait_packets, expected_wait);
  EXPECT_DOUBLE_EQ(m.wait_ms,
                   static_cast<double>(expected_wait) * pkt_ms);
  EXPECT_DOUBLE_EQ(m.wait_ms + m.listen_ms,
                   static_cast<double>(m.latency_packets) * pkt_ms);
}

// The phase fallback: a workload without an arrival process still runs on
// the event engine, with each client's arrival derived from its
// cycle-relative tune phase.
TEST(EventEngineTest, PhaseFallbackArrivals) {
  const Fixture& f = SharedFixture();
  const core::AirSystem& dj = *f.systems[0];

  workload::Workload one;
  one.queries.push_back(f.w.queries[0]);
  one.queries[0].arrival_ms = -1.0;
  one.queries[0].tune_phase = 0.5;

  EventOptions eo;
  eo.deterministic = true;
  EventEngine engine(f.g, eo);
  SystemResult r = engine.RunSystem(dj, one);
  EXPECT_TRUE(r.per_query[0].ok);
  // A full-cycle client's latency is one cycle wherever it tunes in; the
  // fallback must not shift it.
  EXPECT_EQ(r.per_query[0].latency_packets, dj.cycle().total_packets());
}

// Overlapping clients on one station observe the *same* channel: two
// queries posed at the same instant with the same demand see identical
// wait/listen, unlike the batch engine where each query draws a private
// loss stream.
TEST(EventEngineTest, CoArrivingClientsShareTheChannelRealization) {
  const Fixture& f = SharedFixture();
  const core::AirSystem& dj = *f.systems[0];

  workload::Workload two;
  two.queries.push_back(f.w.queries[0]);
  two.queries.push_back(f.w.queries[0]);  // same query, same arrival
  two.queries[0].arrival_ms = 500.0;
  two.queries[1].arrival_ms = 500.0;

  EventOptions eo = LossyOptions();
  EventEngine engine(f.g, eo);
  SystemResult r = engine.RunSystem(dj, two);
  ASSERT_EQ(r.per_query.size(), 2u);
  // Identical clients at the same instant on one shared channel are
  // indistinguishable — every metric matches, losses included.
  EXPECT_EQ(r.per_query[0], r.per_query[1]);

  // Sanity check of the premise: the batch engine's per-query streams
  // make the same two queries diverge (different loss replays).
  SimOptions so;
  so.loss = eo.loss;
  so.loss_seed = eo.station_seed;
  so.client = eo.client;
  so.deterministic = true;
  SystemResult batch = Simulator(f.g, so).RunSystem(dj, two);
  EXPECT_NE(batch.per_query[0].tuning_packets,
            batch.per_query[1].tuning_packets);
}

}  // namespace
}  // namespace airindex::sim
