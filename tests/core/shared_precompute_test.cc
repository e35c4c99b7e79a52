#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/border_precompute.h"
#include "core/eb.h"
#include "core/nr.h"
#include "graph/graph.h"
#include "partition/kd_tree.h"
#include "testing/test_graphs.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

partition::Partitioning KdPartition(const graph::Graph& g, uint32_t regions) {
  return partition::KdTreePartitioner::Build(g, regions).value().Partition(g);
}

/// `g` with the weight of its first arc raised by one: same node and arc
/// counts, same coordinates (hence the same kd partitioning), other content.
graph::Graph WithOneWeightChanged(const graph::Graph& g) {
  std::vector<graph::EdgeTriplet> edges;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const graph::Graph::Arc& a : g.OutArcs(v)) {
      edges.push_back({v, a.to, a.weight});
    }
  }
  edges.front().weight += 1;
  return graph::Graph::Build(g.coords(), edges).value();
}

void ExpectSameCycle(const broadcast::BroadcastCycle& a,
                     const broadcast::BroadcastCycle& b, const char* what) {
  ASSERT_EQ(a.num_segments(), b.num_segments()) << what;
  EXPECT_EQ(a.total_packets(), b.total_packets()) << what;
  for (size_t i = 0; i < a.num_segments(); ++i) {
    EXPECT_EQ(a.segment(i).type, b.segment(i).type) << what << " " << i;
    EXPECT_EQ(a.segment(i).id, b.segment(i).id) << what << " " << i;
    EXPECT_EQ(a.segment(i).is_index, b.segment(i).is_index)
        << what << " " << i;
    EXPECT_EQ(a.segment(i).payload, b.segment(i).payload)
        << what << " " << i;
  }
}

TEST(SharedPrecomputeTest, NrAndEbBuiltBackToBackShareOneObject) {
  const graph::Graph g = SmallNetwork(400, 640, 5);
  auto nr = NrSystem::Build(g, 8).value();
  auto eb = EbSystem::Build(g, 8).value();
  ASSERT_NE(nr->precompute(), nullptr);
  EXPECT_EQ(nr->precompute().get(), eb->precompute().get());
  // Both report the one computation's own wall time (Table 3's "EB/NR").
  EXPECT_EQ(nr->precompute_seconds(), eb->precompute_seconds());
  EXPECT_EQ(nr->precompute_seconds(), nr->precompute()->seconds);
}

TEST(SharedPrecomputeTest, LivesExactlyAsLongAsTheSystemsBuiltFromIt) {
  const graph::Graph g = SmallNetwork(400, 640, 6);
  std::weak_ptr<const BorderPrecompute> weak;
  const BorderPrecompute* old = nullptr;
  {
    auto nr = NrSystem::Build(g, 8).value();
    auto eb = EbSystem::Build(g, 8).value();
    weak = nr->precompute();
    old = nr->precompute().get();
    nr.reset();
    EXPECT_FALSE(weak.expired()) << "EB still holds it";
  }
  EXPECT_TRUE(weak.expired());

  // `weak` pins the expired object's storage (make_shared puts it in the
  // control block), so a recomputed object cannot reuse its address.
  auto nr = NrSystem::Build(g, 8).value();
  ASSERT_NE(nr->precompute(), nullptr);
  EXPECT_NE(nr->precompute().get(), old);
}

TEST(SharedPrecomputeTest, EqualGraphAndPartitioningHit) {
  const graph::Graph g = SmallNetwork(400, 640, 7);
  const graph::Graph copy = g;  // equal content, another address
  auto first = SharedBorderPrecompute(g, KdPartition(g, 8)).value();
  auto second = SharedBorderPrecompute(copy, KdPartition(copy, 8)).value();
  EXPECT_EQ(first.get(), second.get());
}

TEST(SharedPrecomputeTest, DifferentRegionCountMisses) {
  const graph::Graph g = SmallNetwork(400, 640, 8);
  auto eight = SharedBorderPrecompute(g, KdPartition(g, 8)).value();
  auto four = SharedBorderPrecompute(g, KdPartition(g, 4)).value();
  EXPECT_NE(eight.get(), four.get());
  EXPECT_EQ(eight->num_regions, 8u);
  EXPECT_EQ(four->num_regions, 4u);
}

TEST(SharedPrecomputeTest, OneChangedArcWeightMisses) {
  const graph::Graph g = SmallNetwork(400, 640, 9);
  const graph::Graph h = WithOneWeightChanged(g);
  ASSERT_EQ(g.num_nodes(), h.num_nodes());
  ASSERT_EQ(g.num_arcs(), h.num_arcs());
  const partition::Partitioning part = KdPartition(g, 8);
  ASSERT_EQ(part.node_region, KdPartition(h, 8).node_region);
  EXPECT_NE(graph::Fingerprint(g), graph::Fingerprint(h));

  auto on_g = SharedBorderPrecompute(g, part).value();
  auto on_h = SharedBorderPrecompute(h, part).value();
  EXPECT_NE(on_g.get(), on_h.get());
}

TEST(SharedPrecomputeTest, DifferentGraphInTheSameStorageMisses) {
  std::optional<graph::Graph> storage;
  storage.emplace(SmallNetwork(400, 640, 10));
  const graph::Graph* address = &*storage;
  const size_t nodes = storage->num_nodes();
  const size_t arcs = storage->num_arcs();
  // The same labels on both graphs, so only the graph content differs.
  const partition::Partitioning part = KdPartition(*storage, 8);
  auto on_a = SharedBorderPrecompute(*storage, part).value();

  storage.reset();
  storage.emplace(SmallNetwork(400, 640, 11));
  ASSERT_EQ(&*storage, address);
  ASSERT_EQ(storage->num_nodes(), nodes);
  ASSERT_EQ(storage->num_arcs(), arcs);
  auto on_b = SharedBorderPrecompute(*storage, part).value();
  EXPECT_NE(on_a.get(), on_b.get());

  const BorderPrecompute fresh =
      ComputeBorderPrecompute(*storage, part).value();
  EXPECT_EQ(on_b->min_rr, fresh.min_rr);
  EXPECT_EQ(on_b->max_rr, fresh.max_rr);
  EXPECT_EQ(on_b->traversed, fresh.traversed);
  EXPECT_EQ(on_b->cross_border, fresh.cross_border);
}

/// The shared path builds the same cycles as an explicit pre-computation,
/// for both encodings and for a serial and then a parallel build (the
/// first systems are gone before the second, so the second recomputes).
TEST(SharedPrecomputeTest, CyclesEqualBuildFromPrecompute) {
  const graph::Graph g = SmallNetwork(500, 800, 12);
  const BorderPrecompute pre =
      ComputeBorderPrecompute(g, KdPartition(g, 8), 1).value();
  for (broadcast::CycleEncoding encoding :
       {broadcast::CycleEncoding::kLegacy,
        broadcast::CycleEncoding::kCompact}) {
    BuildConfig config;
    config.encoding = encoding;
    auto nr_ref = NrSystem::BuildFromPrecompute(g, pre, config).value();
    auto eb_ref = EbSystem::BuildFromPrecompute(g, pre, config).value();
    EXPECT_EQ(nr_ref->precompute(), nullptr);
    for (unsigned threads : {1u, 4u}) {
      config.precompute_threads = threads;
      std::weak_ptr<const BorderPrecompute> weak;
      {
        auto nr = NrSystem::Build(g, 8, config).value();
        auto eb = EbSystem::Build(g, 8, config).value();
        weak = nr->precompute();
        ExpectSameCycle(nr->cycle(), nr_ref->cycle(), "NR");
        ExpectSameCycle(eb->cycle(), eb_ref->cycle(), "EB");
      }
      EXPECT_TRUE(weak.expired());
    }
  }
}

TEST(SharedPrecomputeTest, ConcurrentBuildsGiveIdenticalCycles) {
  const graph::Graph g = SmallNetwork(500, 800, 13);
  const BorderPrecompute pre =
      ComputeBorderPrecompute(g, KdPartition(g, 8)).value();
  auto nr_ref = NrSystem::BuildFromPrecompute(g, pre).value();
  auto eb_ref = EbSystem::BuildFromPrecompute(g, pre).value();

  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<NrSystem>> nrs(kThreads);
  std::vector<std::unique_ptr<EbSystem>> ebs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Alternate the order so NR and EB race for the first computation.
      BuildConfig config;
      config.precompute_threads = 1;
      if (t % 2 == 0) {
        nrs[t] = NrSystem::Build(g, 8, config).value();
        ebs[t] = EbSystem::Build(g, 8, config).value();
      } else {
        ebs[t] = EbSystem::Build(g, 8, config).value();
        nrs[t] = NrSystem::Build(g, 8, config).value();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    ExpectSameCycle(nrs[t]->cycle(), nr_ref->cycle(), "NR");
    ExpectSameCycle(ebs[t]->cycle(), eb_ref->cycle(), "EB");
  }
}

}  // namespace
}  // namespace airindex::core
