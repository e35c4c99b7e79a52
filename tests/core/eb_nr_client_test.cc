#include <gtest/gtest.h>

#include <bit>

#include "algo/dijkstra.h"
#include "broadcast/channel.h"
#include "core/border_precompute.h"
#include "core/eb.h"
#include "core/nr.h"
#include "core/query_scratch.h"
#include "partition/kd_tree.h"
#include "testing/test_graphs.h"
#include "workload/workload.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

/// EB's pruning rule applied client-side must match a direct evaluation of
/// the §4.2 inequality over the server's pre-computation.
TEST(EbClientTest, ReceivedRegionCountMatchesPruningRule) {
  QueryScratch scratch;
  graph::Graph g = SmallNetwork(500, 800, 701);
  auto kd = partition::KdTreePartitioner::Build(g, 8).value();
  auto pre = ComputeBorderPrecompute(g, kd.Partition(g)).value();
  auto eb = EbSystem::BuildFromPrecompute(g, pre).value();
  broadcast::BroadcastChannel channel(&eb->cycle(), 0.0);

  auto w = workload::GenerateWorkload(g, 12, 702).value();
  for (const auto& q : w.queries) {
    const graph::RegionId rs = pre.part.node_region[q.source];
    const graph::RegionId rt = pre.part.node_region[q.target];
    const graph::Dist ub = pre.MaxDist(rs, rt);
    uint32_t expected = 0;
    for (graph::RegionId r = 0; r < 8; ++r) {
      if (r == rs || r == rt) {
        ++expected;
        continue;
      }
      const graph::Dist a = pre.MinDist(rs, r);
      const graph::Dist b = pre.MinDist(r, rt);
      if (a != graph::kInfDist && b != graph::kInfDist && a + b <= ub) {
        ++expected;
      }
    }
    device::QueryMetrics m =
        eb->RunQuery(channel, MakeAirQuery(g, q), {}, &scratch);
    EXPECT_EQ(m.regions_received, expected)
        << q.source << "->" << q.target;
  }
}

/// The degenerate case §5 motivates NR with: source and destination in the
/// farthest-apart regions can force EB to receive (almost) everything,
/// while NR's needed set stays a subset.
TEST(EbNrClientTest, NrNeverReceivesMoreRegionsThanEb) {
  QueryScratch scratch;
  graph::Graph g = SmallNetwork(600, 960, 703);
  auto kd = partition::KdTreePartitioner::Build(g, 16).value();
  auto pre = ComputeBorderPrecompute(g, kd.Partition(g)).value();
  auto eb = EbSystem::BuildFromPrecompute(g, pre).value();
  auto nr = NrSystem::BuildFromPrecompute(g, pre).value();
  broadcast::BroadcastChannel eb_ch(&eb->cycle(), 0.0);
  broadcast::BroadcastChannel nr_ch(&nr->cycle(), 0.0);

  auto w = workload::GenerateWorkload(g, 25, 704).value();
  for (const auto& q : w.queries) {
    auto m_eb = eb->RunQuery(eb_ch, MakeAirQuery(g, q), {}, &scratch);
    auto m_nr = nr->RunQuery(nr_ch, MakeAirQuery(g, q), {}, &scratch);
    EXPECT_LE(m_nr.regions_received, m_eb.regions_received)
        << q.source << "->" << q.target;
  }
}

/// NR's needed set (the regions its chain actually receives, lossless)
/// equals the pre-computation's needed-region set for the query's region
/// pair.
TEST(NrClientTest, ChainVisitsExactlyTheNeededSet) {
  QueryScratch scratch;
  graph::Graph g = SmallNetwork(500, 800, 705);
  auto kd = partition::KdTreePartitioner::Build(g, 8).value();
  auto pre = ComputeBorderPrecompute(g, kd.Partition(g)).value();
  auto nr = NrSystem::BuildFromPrecompute(g, pre).value();
  broadcast::BroadcastChannel channel(&nr->cycle(), 0.0);

  auto w = workload::GenerateWorkload(g, 15, 706).value();
  for (const auto& q : w.queries) {
    const graph::RegionId rs = pre.part.node_region[q.source];
    const graph::RegionId rt = pre.part.node_region[q.target];
    std::vector<uint64_t> mask(pre.words_per_pair());
    pre.NeededRegionsMask(rs, rt, mask.data());
    size_t needed = 0;
    for (uint64_t word : mask) needed += std::popcount(word);
    device::QueryMetrics m =
        nr->RunQuery(channel, MakeAirQuery(g, q), {}, &scratch);
    EXPECT_EQ(m.regions_received, needed) << q.source << "->" << q.target;
  }
}

/// Tuning in at every phase of the cycle (including exactly at index
/// starts) must work and stay exact — regression test for the
/// tuned-in-at-index-start full-cycle sleep bug.
TEST(EbNrClientTest, EveryTuneInPhaseIsExact) {
  QueryScratch scratch;
  graph::Graph g = SmallNetwork(300, 480, 707);
  auto eb = EbSystem::Build(g, 8).value();
  auto nr = NrSystem::Build(g, 8).value();
  workload::Query q;
  q.source = 17;
  q.target = 250;
  q.true_dist = algo::DijkstraPath(g, 17, 250).dist;

  for (AirSystem* sys : {static_cast<AirSystem*>(eb.get()),
                         static_cast<AirSystem*>(nr.get())}) {
    broadcast::BroadcastChannel channel(&sys->cycle(), 0.0);
    const uint32_t total = sys->cycle().total_packets();
    for (uint32_t pos = 0; pos < total; pos += 7) {
      q.tune_phase = static_cast<double>(pos) / total;
      device::QueryMetrics m =
          sys->RunQuery(channel, MakeAirQuery(g, q), {}, &scratch);
      ASSERT_EQ(m.distance, q.true_dist)
          << sys->name() << " phase " << q.tune_phase;
      // Latency must never exceed ~2 cycles at zero loss.
      ASSERT_LE(m.latency_packets, 2ull * total + 4)
          << sys->name() << " phase " << q.tune_phase;
    }
  }
}

/// A failed query still reports what its radio did: every packet it
/// listened to before giving up counts toward tuning time and latency, so
/// aggregates and the event engine's session clock see it. Heavy loss with
/// no repair cycles makes EB and NR give up early (index bytes lost for
/// good); a dead channel makes them give up while probing for an index.
TEST(EbNrClientTest, FailedQueriesReportTheirRadioCounters) {
  QueryScratch scratch;
  graph::Graph g = SmallNetwork(400, 640, 709);
  auto eb = EbSystem::Build(g, 8).value();
  auto nr = NrSystem::Build(g, 8).value();
  auto w = workload::GenerateWorkload(g, 40, 710).value();
  ClientOptions options;
  options.max_repair_cycles = 0;

  for (const AirSystem* sys : {static_cast<const AirSystem*>(eb.get()),
                               static_cast<const AirSystem*>(nr.get())}) {
    size_t failures = 0;
    for (double loss : {0.3, 0.6, 1.0}) {
      for (size_t i = 0; i < w.queries.size(); ++i) {
        broadcast::BroadcastChannel channel(
            &sys->cycle(), broadcast::LossModel::Independent(loss), 900 + i);
        const device::QueryMetrics m =
            sys->RunQuery(
                channel, MakeAirQuery(g, w.queries[i]), options, &scratch);
        if (m.ok) continue;
        ++failures;
        EXPECT_GT(m.tuning_packets, 0u)
            << sys->name() << " loss " << loss << " query " << i;
        EXPECT_GE(m.latency_packets, m.tuning_packets)
            << sys->name() << " loss " << loss << " query " << i;
      }
    }
    EXPECT_GT(failures, 0u) << sys->name();
  }
}

/// Same pre-computation => both systems report the same Table 3 time.
TEST(EbNrClientTest, SharedPrecomputeReportsSameSeconds) {
  graph::Graph g = SmallNetwork(200, 320, 708);
  auto kd = partition::KdTreePartitioner::Build(g, 4).value();
  auto pre = ComputeBorderPrecompute(g, kd.Partition(g)).value();
  auto eb = EbSystem::BuildFromPrecompute(g, pre).value();
  auto nr = NrSystem::BuildFromPrecompute(g, pre).value();
  EXPECT_DOUBLE_EQ(eb->precompute_seconds(), nr->precompute_seconds());
}

}  // namespace
}  // namespace airindex::core
