#include <gtest/gtest.h>

#include "broadcast/channel.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "device/energy.h"
#include "graph/catalog.h"
#include "testing/test_graphs.h"
#include "workload/workload.h"

namespace airindex {
namespace {

/// Full pipeline on a miniature catalog network: generate the replica,
/// build every system, run a workload through a lossy channel, and check
/// correctness plus the paper's qualitative orderings end to end.
TEST(EndToEndTest, MiniatureGermanyPipeline) {
  core::QueryScratch scratch;
  auto g = graph::MakeNetwork(graph::DefaultNetwork(), 0.02).value();
  ASSERT_GT(g.num_nodes(), 500u);
  ASSERT_TRUE(g.IsStronglyConnected());

  core::SystemParams params;
  params.arcflag_regions = 8;
  params.eb_regions = 16;
  params.nr_regions = 16;
  params.landmarks = 4;
  auto systems = core::BuildSystems(g, params).value();
  auto w = workload::GenerateWorkload(g, 15, 42).value();

  device::EnergyModel energy(device::DeviceProfile::J2mePhone(),
                             device::kBitrateStatic3G);

  double dj_joules = 0, nr_joules = 0;
  for (const auto& sys : systems) {
    broadcast::BroadcastChannel channel(&sys->cycle(), 0.01, 7);
    core::ClientOptions opts;
    opts.max_repair_cycles = 32;
    double joules = 0;
    for (const auto& q : w.queries) {
      device::QueryMetrics m =
          sys->RunQuery(channel, core::MakeAirQuery(g, q), opts, &scratch);
      ASSERT_TRUE(m.ok) << sys->name();
      ASSERT_EQ(m.distance, q.true_dist) << sys->name();
      joules += energy.QueryJoules(m);
    }
    if (sys->name() == "DJ") dj_joules = joules;
    if (sys->name() == "NR") nr_joules = joules;
  }
  // The energy argument of §1/§3.1: selective tuning saves power.
  EXPECT_LT(nr_joules, dj_joules);
}

TEST(EndToEndTest, PrecomputeTimesAreReported) {
  auto g = graph::MakeNetwork(graph::PaperNetworks()[0], 0.02).value();
  core::SystemParams params;
  params.eb_regions = 8;
  params.nr_regions = 8;
  params.arcflag_regions = 8;
  params.landmarks = 2;
  auto systems = core::BuildSystems(g, params).value();
  for (const auto& sys : systems) {
    if (sys->name() == "DJ") {
      EXPECT_EQ(sys->precompute_seconds(), 0.0);
    } else {
      EXPECT_GT(sys->precompute_seconds(), 0.0) << sys->name();
    }
  }
}

TEST(EndToEndTest, DeterministicReplay) {
  core::QueryScratch scratch;
  auto g = testing_support::SmallNetwork(300, 480, 4242);
  auto systems = core::BuildSystems(g, core::SystemParams{
                                           .arcflag_regions = 8,
                                           .eb_regions = 8,
                                           .nr_regions = 8,
                                           .landmarks = 2,
                                           .build = {},
                                       })
                     .value();
  auto w = workload::GenerateWorkload(g, 5, 4243).value();
  for (const auto& sys : systems) {
    broadcast::BroadcastChannel channel(&sys->cycle(), 0.05, 11);
    for (const auto& q : w.queries) {
      auto a = sys->RunQuery(channel, core::MakeAirQuery(g, q), {}, &scratch);
      auto b = sys->RunQuery(channel, core::MakeAirQuery(g, q), {}, &scratch);
      EXPECT_EQ(a.tuning_packets, b.tuning_packets) << sys->name();
      EXPECT_EQ(a.latency_packets, b.latency_packets) << sys->name();
      EXPECT_EQ(a.distance, b.distance) << sys->name();
      EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << sys->name();
    }
  }
}

}  // namespace
}  // namespace airindex
