#include <gtest/gtest.h>

#include "core/systems.h"
#include "testing/test_graphs.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

TEST(BuildSystemsTest, FollowsTableOneOrder) {
  graph::Graph g = SmallNetwork(300, 480, 21);
  SystemParams params;
  params.nr_regions = 8;
  params.eb_regions = 8;
  params.arcflag_regions = 8;
  params.landmarks = 3;

  auto systems = BuildSystems(g, kMainSystems, params);
  ASSERT_TRUE(systems.ok());
  ASSERT_EQ(systems->size(), 5u);
  const char* order[5] = {"DJ", "NR", "EB", "LD", "AF"};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*systems)[i]->name(), order[i]);
  }
}

TEST(BuildSystemTest, UnknownMethodIsAnError) {
  graph::Graph g = SmallNetwork(300, 480, 21);
  EXPECT_FALSE(BuildSystem(g, "XX", {}).ok());
}

TEST(BuildSystemsTest, BuildsTheNamedMethodsInTheGivenOrder) {
  graph::Graph g = SmallNetwork(300, 480, 21);
  const std::string_view names[] = {"EB", "DJ"};
  auto systems = BuildSystems(g, names, {});
  ASSERT_TRUE(systems.ok());
  ASSERT_EQ(systems->size(), 2u);
  EXPECT_EQ((*systems)[0]->name(), "EB");
  EXPECT_EQ((*systems)[1]->name(), "DJ");
  const std::string_view unknown[] = {"DJ", "XX"};
  EXPECT_FALSE(BuildSystems(g, unknown, {}).ok());
}

TEST(AllSystemsTest, MainFiveLeadTheTableOneList) {
  ASSERT_EQ(kAllSystems.size(), 7u);
  EXPECT_EQ(kAllSystems[5], "SPQ");
  EXPECT_EQ(kAllSystems[6], "HiTi");
  ASSERT_EQ(kMainSystems.size(), 5u);
  EXPECT_EQ(kMainSystems.data(), kAllSystems.data());
}

}  // namespace
}  // namespace airindex::core
