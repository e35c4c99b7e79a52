// Golden determinism test for the allocation-free query path: QueryMetrics
// must be byte-identical whether a query runs with a fresh QueryScratch or
// a scratch reused across every preceding query — and whether the engine
// fans the workload over 1 or 4 threads. This pins the scratch contract:
// scratch changes where client working memory comes from, never what the
// client computes.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "broadcast/channel.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "device/metrics.h"
#include "sim/simulator.h"
#include "testing/test_graphs.h"
#include "workload/workload.h"

namespace airindex::sim {
namespace {

using testing_support::SmallNetwork;

constexpr double kLossRate = 0.02;
constexpr uint64_t kLossSeed = 0x60551;

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
    fx->w = workload::GenerateWorkload(fx->g, 12, 78).value();
    return fx;
  }();
  return f;
}

device::QueryMetrics RunOne(const Fixture& f, const core::AirSystem& sys,
                            size_t i, core::QueryScratch* scratch) {
  broadcast::BroadcastChannel channel(
      &sys.cycle(), broadcast::LossModel::Independent(kLossRate),
      QueryLossSeed(kLossSeed, i));
  device::QueryMetrics m = sys.RunQuery(
      channel, core::MakeAirQuery(f.g, f.w.queries[i]), {}, scratch);
  m.cpu_ms = 0.0;  // the one wall-clock field
  return m;
}

TEST(ScratchDeterminismTest, ReusedScratchMatchesFresh) {
  const Fixture& f = SharedFixture();
  ASSERT_EQ(f.systems.size(), 7u);
  for (const auto& sys : f.systems) {
    core::QueryScratch reused;
    for (size_t i = 0; i < f.w.queries.size(); ++i) {
      core::QueryScratch fresh;
      const device::QueryMetrics with_fresh = RunOne(f, *sys, i, &fresh);
      const device::QueryMetrics with_reused = RunOne(f, *sys, i, &reused);
      EXPECT_EQ(with_fresh, with_reused) << sys->name() << " query " << i;
    }
  }
}

// A scratch polluted by a *different* system's queries must not change
// results either (the CLI runs several systems through one simulator).
TEST(ScratchDeterminismTest, CrossSystemScratchReuseIsClean) {
  const Fixture& f = SharedFixture();
  core::QueryScratch reused;
  std::vector<device::QueryMetrics> first_pass;
  for (const auto& sys : f.systems) {
    for (size_t i = 0; i < 4; ++i) {
      first_pass.push_back(RunOne(f, *sys, i, &reused));
    }
  }
  // Second sweep over the same queries with the now well-worn scratch.
  size_t k = 0;
  for (const auto& sys : f.systems) {
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(first_pass[k++], RunOne(f, *sys, i, &reused))
          << sys->name() << " query " << i;
    }
  }
}

TEST(ScratchDeterminismTest, EngineThreads1And4BitIdentical) {
  const Fixture& f = SharedFixture();
  std::vector<const core::AirSystem*> ptrs;
  for (const auto& sys : f.systems) ptrs.push_back(sys.get());

  SimOptions so;
  so.loss = broadcast::LossModel::Independent(kLossRate);
  so.loss_seed = kLossSeed;
  so.deterministic = true;

  so.threads = 1;
  BatchResult serial = Simulator(f.g, so).Run(ptrs, f.w);
  so.threads = 4;
  BatchResult parallel = Simulator(f.g, so).Run(ptrs, f.w);

  ASSERT_EQ(serial.systems.size(), parallel.systems.size());
  for (size_t sidx = 0; sidx < serial.systems.size(); ++sidx) {
    const auto& a = serial.systems[sidx];
    const auto& b = parallel.systems[sidx];
    ASSERT_EQ(a.per_query.size(), b.per_query.size());
    for (size_t i = 0; i < a.per_query.size(); ++i) {
      EXPECT_EQ(a.per_query[i], b.per_query[i])
          << a.system << " query " << i;
    }
  }
}

}  // namespace
}  // namespace airindex::sim
