#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/border_precompute.h"
#include "core/systems.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "partition/kd_tree.h"

namespace airindex::core {
namespace {

graph::Graph MakeGraph(uint32_t nodes, uint64_t seed) {
  graph::GenSpec spec;
  spec.num_nodes = nodes;
  spec.seed = seed;
  return graph::GenerateRoadNetwork(spec).value();
}

TEST(PrecomputeParallelTest, ByteIdenticalToSerial) {
  const graph::Graph g = MakeGraph(2000, 21);
  auto kd = partition::KdTreePartitioner::Build(g, 8).value();
  const partition::Partitioning part = kd.Partition(g);

  auto serial = ComputeBorderPrecompute(g, part, /*num_threads=*/1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (unsigned threads : {2u, 3u, 8u}) {
    auto par = ComputeBorderPrecompute(g, part, threads);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(serial->num_regions, par->num_regions);
    // Every derived array must match bit-for-bit: the work-stealing merge
    // is commutative, so scheduling cannot leak into the result.
    EXPECT_EQ(serial->min_rr, par->min_rr) << threads << " threads";
    EXPECT_EQ(serial->max_rr, par->max_rr) << threads << " threads";
    EXPECT_EQ(serial->traversed, par->traversed) << threads << " threads";
    EXPECT_EQ(serial->cross_border, par->cross_border)
        << threads << " threads";
  }
}

// The needed-region mask is the traversal set plus both endpoint regions.
TEST(PrecomputeParallelTest, NeededRegionsMaskIsTraversalPlusEndpoints) {
  const graph::Graph g = MakeGraph(1500, 4);
  auto kd = partition::KdTreePartitioner::Build(g, 8).value();
  auto pre = ComputeBorderPrecompute(g, kd.Partition(g)).value();

  std::vector<uint64_t> mask(pre.words_per_pair());
  for (graph::RegionId i = 0; i < pre.num_regions; ++i) {
    for (graph::RegionId j = 0; j < pre.num_regions; ++j) {
      pre.NeededRegionsMask(i, j, mask.data());
      for (graph::RegionId k = 0; k < pre.num_regions; ++k) {
        const bool needed = (mask[k / 64] >> (k % 64)) & 1;
        EXPECT_EQ(needed, k == i || k == j || pre.TraversesRegion(i, j, k))
            << i << "," << j << ": " << k;
      }
    }
  }
}

/// The broadcast cycle of every method must be byte-identical regardless of
/// how many threads built the pre-computation (the cycle is the published
/// artifact — reproduction numbers depend on it).
TEST(PrecomputeParallelTest, AllSystemsCyclesUnaffectedByThreads) {
  const graph::Graph g = MakeGraph(500, 33);
  SystemParams base;
  base.nr_regions = 8;
  base.eb_regions = 8;
  base.arcflag_regions = 8;
  base.hiti_regions = 8;
  base.landmarks = 2;

  SystemParams threaded = base;
  threaded.build.precompute_threads = 4;

  for (const char* method : {"DJ", "NR", "EB", "LD", "AF", "SPQ", "HiTi"}) {
    auto a = BuildSystem(g, method, base);
    ASSERT_TRUE(a.ok()) << method << ": " << a.status().ToString();
    auto b = BuildSystem(g, method, threaded);
    ASSERT_TRUE(b.ok()) << method;
    const broadcast::BroadcastCycle& ca = (*a)->cycle();
    const broadcast::BroadcastCycle& cb = (*b)->cycle();
    ASSERT_EQ(ca.num_segments(), cb.num_segments()) << method;
    EXPECT_EQ(ca.total_packets(), cb.total_packets()) << method;
    for (size_t i = 0; i < ca.num_segments(); ++i) {
      const broadcast::Segment& sa = ca.segment(i);
      const broadcast::Segment& sb = cb.segment(i);
      EXPECT_EQ(sa.type, sb.type) << method << " segment " << i;
      EXPECT_EQ(sa.id, sb.id) << method << " segment " << i;
      EXPECT_EQ(sa.payload, sb.payload) << method << " segment " << i;
    }
  }
}

/// The segments of the cycle `method` builds with `threads`
/// pre-computation workers. The system is dropped before returning, so the
/// next build cannot reuse a pre-computation it shared (NR and EB share one
/// per graph and partitioning while a system built from it is alive).
std::vector<broadcast::Segment> CycleSegments(const graph::Graph& g,
                                              const char* method,
                                              SystemParams params,
                                              unsigned threads) {
  params.build.precompute_threads = threads;
  auto sys = BuildSystem(g, method, params);
  if (!sys.ok()) {
    ADD_FAILURE() << method << ": " << sys.status().ToString();
    return {};
  }
  const broadcast::BroadcastCycle& cycle = (*sys)->cycle();
  std::vector<broadcast::Segment> segments;
  for (size_t i = 0; i < cycle.num_segments(); ++i) {
    segments.push_back(cycle.segment(i));
  }
  return segments;
}

/// The same contract at thread counts that differ on any machine: one
/// worker, two and four. Every method's pre-computation honours
/// `precompute_threads`, so each count runs its own schedule.
TEST(PrecomputeParallelTest, AllSystemsCyclesEqualAtOneTwoAndFourThreads) {
  const graph::Graph g = MakeGraph(500, 34);
  SystemParams params;
  params.nr_regions = 8;
  params.eb_regions = 8;
  params.arcflag_regions = 8;
  params.hiti_regions = 8;
  params.landmarks = 2;

  for (const char* method : {"DJ", "NR", "EB", "LD", "AF", "SPQ", "HiTi"}) {
    const std::vector<broadcast::Segment> want =
        CycleSegments(g, method, params, 1);
    ASSERT_FALSE(want.empty()) << method;
    for (unsigned threads : {2u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << method << ", " << threads << " threads");
      const std::vector<broadcast::Segment> got =
          CycleSegments(g, method, params, threads);
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].type, got[i].type) << "segment " << i;
        EXPECT_EQ(want[i].id, got[i].id) << "segment " << i;
        EXPECT_EQ(want[i].payload, got[i].payload) << "segment " << i;
      }
    }
  }
}

}  // namespace
}  // namespace airindex::core
