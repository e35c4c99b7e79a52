#include "graph/catalog.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "graph/generator.h"

namespace airindex::graph {
namespace {

TEST(CatalogTest, FivePaperNetworksInTableOrder) {
  const auto& nets = PaperNetworks();
  ASSERT_EQ(nets.size(), 5u);
  EXPECT_EQ(nets[0].name, "Milan");
  EXPECT_EQ(nets[1].name, "Germany");
  EXPECT_EQ(nets[2].name, "Argentina");
  EXPECT_EQ(nets[3].name, "India");
  EXPECT_EQ(nets[4].name, "SanFrancisco");
}

TEST(CatalogTest, PaperSizes) {
  const auto& nets = PaperNetworks();
  EXPECT_EQ(nets[0].num_nodes, 14021u);
  EXPECT_EQ(nets[0].num_edges, 26849u);
  EXPECT_EQ(nets[1].num_nodes, 28867u);
  EXPECT_EQ(nets[1].num_edges, 30429u);
  EXPECT_EQ(nets[4].num_nodes, 174956u);
  EXPECT_EQ(nets[4].num_edges, 223001u);
}

TEST(CatalogTest, DefaultIsGermany) {
  EXPECT_EQ(DefaultNetwork().name, "Germany");
}

TEST(CatalogTest, FindByName) {
  auto found = FindNetwork("India");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->num_nodes, 149566u);
  EXPECT_FALSE(FindNetwork("Atlantis").ok());
}

TEST(CatalogTest, ScaledReplicaPreservesRatio) {
  auto g = MakeNetwork(PaperNetworks()[0], 0.1);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // ~1402 nodes, ~2685 edges.
  EXPECT_NEAR(static_cast<double>(g->num_nodes()), 1402, 2);
  EXPECT_NEAR(static_cast<double>(g->num_arcs()) / 2, 2685, 2);
  EXPECT_TRUE(g->IsStronglyConnected());
}

TEST(CatalogTest, RejectsBadScale) {
  EXPECT_FALSE(MakeNetwork(PaperNetworks()[0], 0.0).ok());
  EXPECT_FALSE(MakeNetwork(PaperNetworks()[0], 1.5).ok());
}

TEST(CatalogTest, SameSpecSameGraph) {
  auto a = MakeNetwork(PaperNetworks()[1], 0.05);
  auto b = MakeNetwork(PaperNetworks()[1], 0.05);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->num_nodes(), b->num_nodes());
  EXPECT_DOUBLE_EQ(a->Coord(0).x, b->Coord(0).x);
}

// The replicas every experiment, test and golden file is built from, pinned
// by content hash, so a change to the generator that moves one graph byte
// fails here first.
TEST(CatalogTest, ReplicaFingerprintsArePinned) {
  struct Pin {
    std::string network;
    double scale;
    uint64_t fingerprint;
  };
  const Pin pins[] = {
      {"Milan", 1.0, 0x3B4FA28B630970D5ULL},
      {"Germany", 1.0, 0xEAC638E18CB82030ULL},
      {"Argentina", 1.0, 0x7F633F4931CAB2D4ULL},
      {"India", 1.0, 0xDEFC50E4E49F413CULL},
      {"SanFrancisco", 1.0, 0xF115A6F8A061363DULL},
      {"Germany", 0.05, 0x7888D7D665FCDA99ULL},
      {"Germany", 0.1, 0x68EBE832B7AA9AA3ULL},
      {"Milan", 0.2, 0x0A228D9FA09FCDC4ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.network + " at " + std::to_string(pin.scale));
    auto g = MakeNetwork(FindNetwork(pin.network).value(), pin.scale);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_EQ(Fingerprint(*g), pin.fingerprint);
  }

  // Sparse candidate pools: two nearest neighbours per node leave 9 and 85
  // components after Kruskal, so the bridge step runs.
  struct OptionsPin {
    GeneratorOptions options;
    uint64_t fingerprint;
  };
  const OptionsPin option_pins[] = {
      {{.num_nodes = 300, .num_edges = 330, .seed = 10, .knn = 2},
       0xBDEE39109C38EB97ULL},
      {{.num_nodes = 2000, .num_edges = 2200, .seed = 8, .knn = 2},
       0xB5B28BC12CE3A465ULL},
  };
  for (const OptionsPin& pin : option_pins) {
    SCOPED_TRACE(::testing::Message() << pin.options.num_nodes << " nodes");
    auto g = GenerateRoadNetwork(pin.options);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    EXPECT_EQ(Fingerprint(*g), pin.fingerprint);
  }
}

}  // namespace
}  // namespace airindex::graph
