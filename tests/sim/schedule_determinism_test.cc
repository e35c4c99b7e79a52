// Determinism and identity suite for broadcast-disk scheduling.
//
//   * Flat identity: a static-mode run whose planner collapses to the
//     flat spec (uniform demand) produces aggregates bit-identical to a
//     flat-mode run, on every system, on clean and lossy channels — the
//     schedule layer adds no observable state to the historical path.
//   * Static-plan determinism: the batch engine under an adopted non-flat
//     spec is bit-identical across thread counts.
//   * Online determinism: the event engine's re-planner observes arrivals
//     in arrival order, so threads 1 vs 4 replay the same adopted-spec
//     sequence and every per-query metric matches bit for bit.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/systems.h"
#include "sim/event_engine.h"
#include "sim/schedule_plan.h"
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
  /// Heavily skewed per-node demand (zipf over a permutation), matching
  /// the destination distribution of `w`.
  std::vector<double> demand;
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
    spec.count = 16;
    spec.seed = 78;
    spec.dest = workload::WorkloadSpec::Dest::kZipf;
    spec.zipf_s = 1.2;
    spec.arrival.kind = workload::ArrivalSpec::Kind::kPoisson;
    spec.arrival.rate_per_second = 30.0;
    fx->w = workload::GenerateWorkload(fx->g, spec).value();
    fx->demand = workload::DestinationWeights(fx->g.num_nodes(), spec);
    return fx;
  }();
  return f;
}

std::vector<const core::AirSystem*> Pointers(const Fixture& f) {
  std::vector<const core::AirSystem*> ptrs;
  for (const auto& sys : f.systems) ptrs.push_back(sys.get());
  return ptrs;
}

TEST(ScheduleDeterminismTest, UniformStaticCollapsesToFlatBitIdentically) {
  const Fixture& f = SharedFixture();
  ASSERT_EQ(f.systems.size(), 7u);
  const auto ptrs = Pointers(f);

  for (double loss : {0.0, 0.02}) {
    SimOptions flat;
    flat.loss = broadcast::LossModel::Independent(loss);
    flat.deterministic = true;
    SimOptions uniform_static = flat;
    uniform_static.schedule.mode = SchedulePolicy::Mode::kStatic;
    // schedule_demand left empty: uniform demand, which the planner's
    // skew gate collapses to the flat spec.

    BatchResult a = Simulator(f.g, flat).Run(ptrs, f.w);
    BatchResult b = Simulator(f.g, uniform_static).Run(ptrs, f.w);
    EXPECT_EQ(a.schedule_mode, "flat");
    EXPECT_EQ(b.schedule_mode, "static");
    ASSERT_EQ(a.systems.size(), b.systems.size());
    for (size_t i = 0; i < a.systems.size(); ++i) {
      EXPECT_EQ(a.systems[i].per_query, b.systems[i].per_query)
          << a.systems[i].system << " loss " << loss;
      EXPECT_EQ(a.systems[i].aggregate, b.systems[i].aggregate)
          << a.systems[i].system << " loss " << loss;
    }
  }
}

TEST(ScheduleDeterminismTest, StaticBatchBitIdenticalAcrossThreads) {
  const Fixture& f = SharedFixture();
  const auto ptrs = Pointers(f);

  SimOptions so;
  so.loss = broadcast::LossModel::Independent(0.02);
  so.deterministic = true;
  so.schedule.mode = SchedulePolicy::Mode::kStatic;
  so.schedule_demand = f.demand;

  so.threads = 1;
  BatchResult serial = Simulator(f.g, so).Run(ptrs, f.w);
  so.threads = 4;
  BatchResult parallel = Simulator(f.g, so).Run(ptrs, f.w);

  ASSERT_EQ(serial.systems.size(), parallel.systems.size());
  for (size_t i = 0; i < serial.systems.size(); ++i) {
    EXPECT_EQ(serial.systems[i].per_query, parallel.systems[i].per_query)
        << serial.systems[i].system;
    EXPECT_EQ(serial.systems[i].aggregate, parallel.systems[i].aggregate)
        << serial.systems[i].system;
  }
}

TEST(ScheduleDeterminismTest, OnlineEventEngineBitIdenticalAcrossThreads) {
  const Fixture& f = SharedFixture();
  const auto ptrs = Pointers(f);

  EventOptions eo;
  eo.deterministic = true;
  eo.client.max_repair_cycles = 64;
  eo.client.repair_header = true;
  eo.schedule.mode = SchedulePolicy::Mode::kOnline;
  eo.schedule.replan_cycles = 2;
  eo.schedule.decay = 0.5;

  eo.threads = 1;
  BatchResult serial = EventEngine(f.g, eo).Run(ptrs, f.w);
  eo.threads = 4;
  BatchResult parallel = EventEngine(f.g, eo).Run(ptrs, f.w);

  EXPECT_EQ(serial.schedule_mode, "online");
  ASSERT_EQ(serial.systems.size(), parallel.systems.size());
  for (size_t i = 0; i < serial.systems.size(); ++i) {
    ASSERT_EQ(serial.systems[i].per_query.size(),
              parallel.systems[i].per_query.size());
    for (size_t q = 0; q < serial.systems[i].per_query.size(); ++q) {
      EXPECT_EQ(serial.systems[i].per_query[q],
                parallel.systems[i].per_query[q])
          << serial.systems[i].system << " query " << q;
    }
    EXPECT_EQ(serial.systems[i].aggregate, parallel.systems[i].aggregate)
        << serial.systems[i].system;
  }
}

TEST(ScheduleDeterminismTest, AdoptedStaticSpecNeverRegressesWaitProfile) {
  // The plan audit's contract: whatever PlanStaticSpec returns, its
  // compiled timeline's exact wait profile is never worse than flat's.
  const Fixture& f = SharedFixture();
  SchedulePolicy policy;
  policy.mode = SchedulePolicy::Mode::kStatic;
  for (const auto& sys : f.systems) {
    const broadcast::ScheduleSpec spec = PlanStaticSpec(
        sys->cycle(), f.demand, policy, broadcast::CycleEncoding::kLegacy);
    if (spec.flat()) continue;
    auto compiled = broadcast::BroadcastSchedule::Compile(&sys->cycle(), spec);
    ASSERT_TRUE(compiled.ok()) << sys->name();
    const broadcast::WaitProfile flat =
        broadcast::FlatWaitProfile(sys->cycle());
    const broadcast::WaitProfile sched =
        broadcast::ScheduleWaitProfile(*compiled);
    EXPECT_LE(sched.mean, flat.mean) << sys->name();
    EXPECT_LE(sched.p95, flat.p95) << sys->name();
  }
}

}  // namespace
}  // namespace airindex::sim
