#include <gtest/gtest.h>

#include <memory>

#include "algo/dijkstra.h"
#include "broadcast/channel.h"
#include "core/eb.h"
#include "core/nr.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "partition/kd_tree.h"
#include "testing/test_graphs.h"
#include "workload/workload.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

/// The headline invariant of the whole system: every broadcast method —
/// the two contributions and all five baselines — computes the exact
/// shortest-path distance through the simulated channel.
class SystemsCorrectnessTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    g_ = SmallNetwork(400, 640, GetParam());
    SystemParams params;
    params.arcflag_regions = 8;
    params.eb_regions = 8;
    params.nr_regions = 8;
    params.landmarks = 3;
    params.hiti_regions = 8;
    params.include_spq = true;
    params.include_hiti = true;
    systems_ = BuildSystems(g_, params).value();
    workload_ = workload::GenerateWorkload(g_, 12, GetParam() + 55).value();
  }

  graph::Graph g_;
  std::vector<std::unique_ptr<AirSystem>> systems_;
  workload::Workload workload_;
};

TEST_P(SystemsCorrectnessTest, AllMethodsExactOnLosslessChannel) {
  QueryScratch scratch;
  for (const auto& sys : systems_) {
    broadcast::BroadcastChannel channel(&sys->cycle(), 0.0);
    for (const auto& q : workload_.queries) {
      device::QueryMetrics m =
          sys->RunQuery(channel, MakeAirQuery(g_, q), {}, &scratch);
      EXPECT_TRUE(m.ok) << sys->name() << " " << q.source << "->" << q.target;
      EXPECT_EQ(m.distance, q.true_dist)
          << sys->name() << " " << q.source << "->" << q.target;
    }
  }
}

/// The compact cycle encoding must be invisible to correctness: every
/// method built with CycleEncoding::kCompact returns the exact distance
/// for every query, decoded through the real client paths.
TEST_P(SystemsCorrectnessTest, AllMethodsExactWithCompactEncoding) {
  QueryScratch scratch;
  SystemParams params;
  params.arcflag_regions = 8;
  params.eb_regions = 8;
  params.nr_regions = 8;
  params.landmarks = 3;
  params.hiti_regions = 8;
  params.include_spq = true;
  params.include_hiti = true;
  params.build.encoding = broadcast::CycleEncoding::kCompact;
  auto compact_systems = BuildSystems(g_, params).value();
  for (const auto& sys : compact_systems) {
    broadcast::BroadcastChannel channel(&sys->cycle(), 0.0);
    for (const auto& q : workload_.queries) {
      device::QueryMetrics m =
          sys->RunQuery(channel, MakeAirQuery(g_, q), {}, &scratch);
      EXPECT_TRUE(m.ok) << sys->name() << " " << q.source << "->" << q.target;
      EXPECT_EQ(m.distance, q.true_dist)
          << sys->name() << " " << q.source << "->" << q.target;
    }
  }
}

TEST_P(SystemsCorrectnessTest, EbAndNrExactWithMemoryBoundProcessing) {
  QueryScratch scratch;
  ClientOptions opts;
  opts.memory_bound = true;
  for (const auto& sys : systems_) {
    if (sys->name() != "EB" && sys->name() != "NR") continue;
    broadcast::BroadcastChannel channel(&sys->cycle(), 0.0);
    for (const auto& q : workload_.queries) {
      device::QueryMetrics m =
          sys->RunQuery(channel, MakeAirQuery(g_, q), opts, &scratch);
      EXPECT_TRUE(m.ok) << sys->name();
      EXPECT_EQ(m.distance, q.true_dist)
          << sys->name() << " (memory-bound) " << q.source << "->"
          << q.target;
    }
  }
}

TEST_P(SystemsCorrectnessTest, EbExactWithoutCrossBorderOptimization) {
  QueryScratch scratch;
  ClientOptions opts;
  opts.cross_border_opt = false;
  for (const auto& sys : systems_) {
    if (sys->name() != "EB") continue;
    broadcast::BroadcastChannel channel(&sys->cycle(), 0.0);
    for (const auto& q : workload_.queries) {
      device::QueryMetrics m =
          sys->RunQuery(channel, MakeAirQuery(g_, q), opts, &scratch);
      EXPECT_EQ(m.distance, q.true_dist);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SystemsCorrectnessTest,
                         ::testing::Values(101, 102, 103));

/// Same-region queries: the paper's methods must stay exact when source and
/// destination fall into one region (our diagonal extension; DESIGN.md).
TEST(SystemsEdgeCaseTest, SameRegionQueriesAreExact) {
  QueryScratch scratch;
  graph::Graph g = SmallNetwork(400, 640, 777);
  auto eb = EbSystem::Build(g, 8).value();
  auto nr = NrSystem::Build(g, 8).value();
  auto kd = partition::KdTreePartitioner::Build(g, 8).value();
  auto part = kd.Partition(g);

  int tested = 0;
  for (graph::RegionId r = 0; r < 8; ++r) {
    const auto& nodes = part.region_nodes[r];
    if (nodes.size() < 2) continue;
    workload::Query q;
    q.source = nodes.front();
    q.target = nodes.back();
    q.true_dist = algo::DijkstraPath(g, q.source, q.target).dist;
    q.tune_phase = 0.37;
    for (AirSystem* sys : {static_cast<AirSystem*>(eb.get()),
                           static_cast<AirSystem*>(nr.get())}) {
      broadcast::BroadcastChannel channel(&sys->cycle(), 0.0);
      device::QueryMetrics m =
          sys->RunQuery(channel, MakeAirQuery(g, q), {}, &scratch);
      EXPECT_TRUE(m.ok) << sys->name() << " region " << r;
      EXPECT_EQ(m.distance, q.true_dist) << sys->name() << " region " << r;
    }
    ++tested;
  }
  EXPECT_GT(tested, 0);
}

TEST(SystemsEdgeCaseTest, AdjacentNodesQuery) {
  QueryScratch scratch;
  graph::Graph g = SmallNetwork(300, 480, 778);
  auto eb = EbSystem::Build(g, 8).value();
  auto nr = NrSystem::Build(g, 8).value();
  workload::Query q;
  q.source = 0;
  q.target = g.OutArcs(0)[0].to;
  q.true_dist = algo::DijkstraPath(g, q.source, q.target).dist;
  q.tune_phase = 0.9;
  for (AirSystem* sys : {static_cast<AirSystem*>(eb.get()),
                         static_cast<AirSystem*>(nr.get())}) {
    broadcast::BroadcastChannel channel(&sys->cycle(), 0.0);
    device::QueryMetrics m =
        sys->RunQuery(channel, MakeAirQuery(g, q), {}, &scratch);
    EXPECT_EQ(m.distance, q.true_dist) << sys->name();
  }
}

}  // namespace
}  // namespace airindex::core
