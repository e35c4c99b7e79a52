#include <gtest/gtest.h>

#include "broadcast/channel.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "testing/test_graphs.h"
#include "workload/workload.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

/// §6.2 invariant: packet loss may cost tuning time and latency, but never
/// correctness — every method still returns the exact distance.
class SystemsLossTest
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(SystemsLossTest, AllMethodsExactUnderLoss) {
  QueryScratch scratch;
  auto [loss, seed] = GetParam();
  graph::Graph g = SmallNetwork(350, 560, seed);
  SystemParams params;
  params.arcflag_regions = 8;
  params.eb_regions = 8;
  params.nr_regions = 8;
  params.landmarks = 3;
  auto systems = BuildSystems(g, kMainSystems, params).value();
  auto w = workload::GenerateWorkload(g, 8, seed + 9).value();

  ClientOptions opts;
  opts.max_repair_cycles = 32;
  for (const auto& sys : systems) {
    broadcast::BroadcastChannel channel(&sys->cycle(), loss, seed + 17);
    for (const auto& q : w.queries) {
      device::QueryMetrics m =
          sys->RunQuery(channel, MakeAirQuery(g, q), opts, &scratch);
      EXPECT_TRUE(m.ok) << sys->name() << " loss=" << loss;
      EXPECT_EQ(m.distance, q.true_dist)
          << sys->name() << " loss=" << loss << " " << q.source << "->"
          << q.target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossRates, SystemsLossTest,
    ::testing::Combine(::testing::Values(0.001, 0.01, 0.05, 0.10),
                       ::testing::Values(501u, 502u)));

TEST(SystemsLossTest, LossIncreasesTuningTime) {
  QueryScratch scratch;
  graph::Graph g = SmallNetwork(350, 560, 601);
  SystemParams params;
  params.eb_regions = 8;
  params.nr_regions = 8;
  auto systems = BuildSystems(g, kMainSystems, params).value();
  auto w = workload::GenerateWorkload(g, 10, 602).value();

  for (const auto& sys : systems) {
    uint64_t clean = 0, lossy = 0;
    broadcast::BroadcastChannel clean_ch(&sys->cycle(), 0.0);
    broadcast::BroadcastChannel lossy_ch(&sys->cycle(), 0.10, 603);
    ClientOptions opts;
    opts.max_repair_cycles = 32;
    for (const auto& q : w.queries) {
      clean += sys->RunQuery(clean_ch, MakeAirQuery(g, q), opts, &scratch)
                   .tuning_packets;
      lossy += sys->RunQuery(lossy_ch, MakeAirQuery(g, q), opts, &scratch)
                   .tuning_packets;
    }
    EXPECT_GE(lossy, clean) << sys->name();
  }
}

TEST(SystemsLossTest, AllMethodsExactUnderBurstLoss) {
  QueryScratch scratch;
  // Wireless losses are bursty in practice; whole region segments can
  // vanish in one fade. Correctness must survive that too.
  graph::Graph g = SmallNetwork(300, 480, 621);
  SystemParams params;
  params.arcflag_regions = 8;
  params.eb_regions = 8;
  params.nr_regions = 8;
  params.landmarks = 3;
  auto systems = BuildSystems(g, kMainSystems, params).value();
  auto w = workload::GenerateWorkload(g, 6, 622).value();
  ClientOptions opts;
  opts.max_repair_cycles = 64;
  for (const auto& sys : systems) {
    broadcast::BroadcastChannel channel(
        &sys->cycle(), broadcast::LossModel::Bursty(0.05, 12), 623);
    for (const auto& q : w.queries) {
      device::QueryMetrics m =
          sys->RunQuery(channel, MakeAirQuery(g, q), opts, &scratch);
      EXPECT_TRUE(m.ok) << sys->name();
      EXPECT_EQ(m.distance, q.true_dist) << sys->name();
    }
  }
}

// The AF header gap (ROADMAP): ArcFlag's kd-split header is not in its
// repair set, so a lost header packet fails the query outright. The
// opt-in ClientOptions::repair_header closes the gap; leaving it off must
// reproduce the historical numbers byte-for-byte.
TEST(SystemsLossTest, ArcFlagHeaderRepairClosesTheGap) {
  QueryScratch scratch;
  graph::Graph g = SmallNetwork(350, 560, 641);
  SystemParams params;
  params.arcflag_regions = 16;  // 130-byte header: 2 packets at risk
  auto af = BuildSystem(g, "AF", params).value();
  auto w = workload::GenerateWorkload(g, 24, 642).value();

  ClientOptions off;
  off.max_repair_cycles = 32;
  ClientOptions on = off;
  on.repair_header = true;

  size_t failures_off = 0, failures_on = 0;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    // Per-query loss streams, like the engine's (the header fade must hit
    // some queries and miss others).
    broadcast::BroadcastChannel channel(
        &af->cycle(), broadcast::LossModel::Independent(0.02), 643 + i);
    const AirQuery q = MakeAirQuery(g, w.queries[i]);
    const device::QueryMetrics m_off = af->RunQuery(channel, q, off, &scratch);
    const device::QueryMetrics m_on = af->RunQuery(channel, q, on, &scratch);

    if (!m_off.ok) ++failures_off;
    if (!m_on.ok) ++failures_on;
    if (m_on.ok) {
      EXPECT_EQ(m_on.distance, w.queries[i].true_dist);
    }

    // Off must be byte-identical to a default-options run (the option
    // changes nothing unless switched on)...
    ClientOptions defaults;
    defaults.max_repair_cycles = 32;
    device::QueryMetrics m_default =
        af->RunQuery(channel, q, defaults, &scratch);
    m_default.cpu_ms = m_off.cpu_ms;  // the one wall-clock field
    device::QueryMetrics m_off_stable = m_off;
    m_off_stable.cpu_ms = m_default.cpu_ms;
    EXPECT_EQ(m_off_stable, m_default) << "query " << i;
  }
  // ...the gap is real with the repair off, and closed with it on.
  EXPECT_GT(failures_off, 0u);
  EXPECT_EQ(failures_on, 0u);
}

TEST(SystemsLossTest, MemoryBoundClientsSurviveLoss) {
  QueryScratch scratch;
  graph::Graph g = SmallNetwork(300, 480, 611);
  SystemParams params;
  params.eb_regions = 8;
  params.nr_regions = 8;
  auto systems = BuildSystems(g, kMainSystems, params).value();
  auto w = workload::GenerateWorkload(g, 6, 612).value();
  ClientOptions opts;
  opts.memory_bound = true;
  opts.max_repair_cycles = 32;
  for (const auto& sys : systems) {
    if (sys->name() != "EB" && sys->name() != "NR") continue;
    broadcast::BroadcastChannel channel(&sys->cycle(), 0.05, 613);
    for (const auto& q : w.queries) {
      device::QueryMetrics m =
          sys->RunQuery(channel, MakeAirQuery(g, q), opts, &scratch);
      EXPECT_EQ(m.distance, q.true_dist) << sys->name();
    }
  }
}

}  // namespace
}  // namespace airindex::core
