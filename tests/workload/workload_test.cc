#include "workload/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "algo/dijkstra.h"
#include "graph/catalog.h"
#include "partition/kd_tree.h"
#include "testing/test_graphs.h"

namespace airindex::workload {
namespace {

using testing_support::SmallNetwork;

TEST(WorkloadTest, GeneratesRequestedCount) {
  graph::Graph g = SmallNetwork();
  auto w = GenerateWorkload(g, 50, 1);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->queries.size(), 50u);
}

TEST(WorkloadTest, SourcesAndTargetsDistinct) {
  graph::Graph g = SmallNetwork();
  auto w = GenerateWorkload(g, 100, 2);
  ASSERT_TRUE(w.ok());
  for (const auto& q : w->queries) {
    EXPECT_NE(q.source, q.target);
    EXPECT_LT(q.source, g.num_nodes());
    EXPECT_LT(q.target, g.num_nodes());
  }
}

TEST(WorkloadTest, GroundTruthMatchesDijkstra) {
  graph::Graph g = SmallNetwork(200, 320, 3);
  auto w = GenerateWorkload(g, 20, 3);
  ASSERT_TRUE(w.ok());
  for (const auto& q : w->queries) {
    EXPECT_EQ(q.true_dist, algo::DijkstraPath(g, q.source, q.target).dist);
  }
}

TEST(WorkloadTest, TunePhaseInUnitInterval) {
  graph::Graph g = SmallNetwork();
  auto w = GenerateWorkload(g, 100, 4);
  ASSERT_TRUE(w.ok());
  for (const auto& q : w->queries) {
    EXPECT_GE(q.tune_phase, 0.0);
    EXPECT_LT(q.tune_phase, 1.0);
  }
}

TEST(WorkloadTest, DeterministicForSeed) {
  graph::Graph g = SmallNetwork();
  auto a = GenerateWorkload(g, 30, 5);
  auto b = GenerateWorkload(g, 30, 5);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(a->queries[i].source, b->queries[i].source);
    EXPECT_EQ(a->queries[i].target, b->queries[i].target);
    EXPECT_DOUBLE_EQ(a->queries[i].tune_phase, b->queries[i].tune_phase);
  }
}

TEST(WorkloadTest, BucketsPartitionTheWorkload) {
  graph::Graph g = SmallNetwork(500, 800, 6);
  auto w = GenerateWorkload(g, 200, 6);
  ASSERT_TRUE(w.ok());
  auto buckets = BucketizeByLength(*w, 4);
  ASSERT_EQ(buckets.size(), 4u);
  size_t total = 0;
  for (const auto& b : buckets) total += b.size();
  EXPECT_EQ(total, 200u);
}

TEST(WorkloadTest, BucketsAreOrderedByLength) {
  graph::Graph g = SmallNetwork(500, 800, 7);
  auto w = GenerateWorkload(g, 200, 7);
  ASSERT_TRUE(w.ok());
  auto buckets = BucketizeByLength(*w, 4);
  const graph::Dist max_dist = MaxTrueDist(*w);
  for (int b = 0; b < 4; ++b) {
    const double lo = static_cast<double>(max_dist + 1) * b / 4;
    const double hi = static_cast<double>(max_dist + 1) * (b + 1) / 4;
    for (size_t qi : buckets[b]) {
      const auto d = static_cast<double>(w->queries[qi].true_dist);
      EXPECT_GE(d, lo - 1.0);
      EXPECT_LE(d, hi + 1.0);
    }
  }
}

TEST(WorkloadTest, TinyGraphRejected) {
  graph::GraphBuilder b;
  b.AddNode({0, 0});
  graph::Graph g = std::move(b).Build().value();
  EXPECT_FALSE(GenerateWorkload(g, 5, 1).ok());
}

// The lossy fleet's population: zipf 1.1 hotspots, sources in kd cells 0
// and 1 of 16.
TEST(WorkloadTest, FleetGroundTruthMatchesDijkstraPaths) {
  const graph::Graph g =
      graph::MakeNetwork(graph::FindNetwork("Germany").value(), 0.1).value();
  WorkloadSpec spec;
  spec.count = 2048;
  spec.dest = WorkloadSpec::Dest::kZipf;
  spec.zipf_s = 1.1;
  spec.source = WorkloadSpec::Source::kClustered;
  spec.partition_regions = 16;
  spec.source_regions = {0, 1};
  auto w = GenerateWorkload(g, spec);
  ASSERT_TRUE(w.ok());
  ASSERT_EQ(w->queries.size(), 2048u);
  for (const auto& q : w->queries) {
    EXPECT_EQ(q.true_dist, algo::DijkstraPath(g, q.source, q.target).dist)
        << q.source << " -> " << q.target;
  }
}

TEST(WorkloadTest, OneWayDeadEndRejected) {
  // The cycle 0 - 1 - 2 and the one-way 2 -> 3: node 3 reaches nothing.
  std::vector<graph::EdgeTriplet> arcs;
  testing_support::AddBoth(&arcs, 0, 1, 1);
  testing_support::AddBoth(&arcs, 1, 2, 1);
  testing_support::AddBoth(&arcs, 2, 0, 1);
  arcs.push_back({2, 3, 1});
  const graph::Graph g = testing_support::FromArcs(4, arcs);
  auto w = GenerateWorkload(g, 50, 1);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// WorkloadSpec distributions
// ---------------------------------------------------------------------------

/// Fraction of queries whose destination is among the most popular tenth
/// of distinct destinations.
double TopDecileDestinationShare(const Workload& w, size_t num_nodes) {
  std::vector<size_t> hits(num_nodes, 0);
  for (const auto& q : w.queries) ++hits[q.target];
  std::sort(hits.begin(), hits.end(), std::greater<>());
  const size_t decile = std::max<size_t>(1, num_nodes / 10);
  size_t top = 0;
  for (size_t i = 0; i < decile; ++i) top += hits[i];
  return static_cast<double>(top) / static_cast<double>(w.queries.size());
}

TEST(WorkloadSpecTest, DefaultSpecMatchesLegacyOverloadExactly) {
  graph::Graph g = SmallNetwork();
  WorkloadSpec spec;
  spec.count = 40;
  spec.seed = 11;
  auto a = GenerateWorkload(g, spec);
  auto b = GenerateWorkload(g, 40, 11);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(a->queries[i].source, b->queries[i].source);
    EXPECT_EQ(a->queries[i].target, b->queries[i].target);
    EXPECT_EQ(a->queries[i].tune_phase, b->queries[i].tune_phase);
    EXPECT_EQ(a->queries[i].true_dist, b->queries[i].true_dist);
  }
}

TEST(WorkloadSpecTest, GenerationIsDeterministicPerSeedAndSkewed) {
  graph::Graph g = SmallNetwork(300, 480, 9);
  WorkloadSpec spec;
  spec.count = 400;
  spec.seed = 21;
  spec.dest = WorkloadSpec::Dest::kZipf;
  spec.zipf_s = 1.5;

  auto a = GenerateWorkload(g, spec);
  auto b = GenerateWorkload(g, spec);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < spec.count; ++i) {
    EXPECT_EQ(a->queries[i].source, b->queries[i].source);
    EXPECT_EQ(a->queries[i].target, b->queries[i].target);
    EXPECT_EQ(a->queries[i].tune_phase, b->queries[i].tune_phase);
  }

  // Different seeds sample different streams.
  WorkloadSpec other = spec;
  other.seed = 22;
  auto c = GenerateWorkload(g, other);
  ASSERT_TRUE(c.ok());
  bool any_diff = false;
  for (size_t i = 0; i < spec.count; ++i) {
    any_diff |= a->queries[i].target != c->queries[i].target;
  }
  EXPECT_TRUE(any_diff);
}

TEST(WorkloadSpecTest, ZipfActuallySkewsDestinations) {
  graph::Graph g = SmallNetwork(300, 480, 9);
  WorkloadSpec uniform;
  uniform.count = 400;
  uniform.seed = 33;
  WorkloadSpec zipf = uniform;
  zipf.dest = WorkloadSpec::Dest::kZipf;
  zipf.zipf_s = 1.5;

  auto uw = GenerateWorkload(g, uniform);
  auto zw = GenerateWorkload(g, zipf);
  ASSERT_TRUE(uw.ok() && zw.ok());
  const double uniform_share = TopDecileDestinationShare(*uw, g.num_nodes());
  const double zipf_share = TopDecileDestinationShare(*zw, g.num_nodes());
  // Uniform puts ~10-25% of queries on the busiest decile (small-sample
  // noise); a 1.5-exponent Zipf concentrates well over half there.
  EXPECT_GT(zipf_share, 0.5);
  EXPECT_GT(zipf_share, uniform_share + 0.2);
}

TEST(WorkloadSpecTest, ClusteredSourcesLandInRequestedCells) {
  graph::Graph g = SmallNetwork(300, 480, 10);
  WorkloadSpec spec;
  spec.count = 120;
  spec.seed = 44;
  spec.source = WorkloadSpec::Source::kClustered;
  spec.partition_regions = 8;
  spec.source_regions = {2, 5};

  auto w = GenerateWorkload(g, spec);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto tree = partition::KdTreePartitioner::Build(g, 8).value();
  for (const auto& q : w->queries) {
    const graph::RegionId region = tree.RegionOf(g.Coord(q.source));
    EXPECT_TRUE(region == 2 || region == 5) << "region " << region;
  }
}

TEST(WorkloadSpecTest, ClusteredSourcesRequireValidRegions) {
  graph::Graph g = SmallNetwork();
  WorkloadSpec spec;
  spec.count = 10;
  spec.source = WorkloadSpec::Source::kClustered;
  EXPECT_FALSE(GenerateWorkload(g, spec).ok());  // no regions named
  spec.source_regions = {99};
  EXPECT_FALSE(GenerateWorkload(g, spec).ok());  // out of range
}

TEST(WorkloadSpecTest, RushHourConcentratesTunePhases) {
  graph::Graph g = SmallNetwork();
  WorkloadSpec spec;
  spec.count = 200;
  spec.seed = 55;
  spec.phase = WorkloadSpec::Phase::kRushHour;
  spec.phase_peak = 0.35;
  spec.phase_width = 0.08;

  auto w = GenerateWorkload(g, spec);
  ASSERT_TRUE(w.ok());
  for (const auto& q : w->queries) {
    ASSERT_GE(q.tune_phase, 0.0);
    ASSERT_LT(q.tune_phase, 1.0);
    // Triangular burst: every phase within peak +/- width.
    EXPECT_GE(q.tune_phase, spec.phase_peak - spec.phase_width - 1e-12);
    EXPECT_LE(q.tune_phase, spec.phase_peak + spec.phase_width + 1e-12);
  }
}

TEST(WorkloadSpecTest, BucketizeStaysCorrectOnSkewedWorkloads) {
  graph::Graph g = SmallNetwork(400, 640, 12);
  WorkloadSpec spec;
  spec.count = 250;
  spec.seed = 66;
  spec.dest = WorkloadSpec::Dest::kZipf;
  spec.zipf_s = 1.3;
  auto w = GenerateWorkload(g, spec);
  ASSERT_TRUE(w.ok());

  auto buckets = BucketizeByLength(*w, 4);
  ASSERT_EQ(buckets.size(), 4u);
  const graph::Dist max_dist = MaxTrueDist(*w);
  std::vector<bool> seen(w->queries.size(), false);
  for (int b = 0; b < 4; ++b) {
    for (size_t qi : buckets[b]) {
      ASSERT_LT(qi, w->queries.size());
      EXPECT_FALSE(seen[qi]);  // each query in exactly one bucket
      seen[qi] = true;
      const auto expected = std::min<int>(
          static_cast<int>(static_cast<unsigned long long>(
                               w->queries[qi].true_dist) *
                           4 / (max_dist + 1)),
          3);
      EXPECT_EQ(expected, b);
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](bool s) { return s; }));
}

}  // namespace
}  // namespace airindex::workload
