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

  auto systems = BuildSystems(g, params);
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

TEST(SystemNamesTest, HeavyMethodsAreOptIn) {
  SystemParams params;
  EXPECT_EQ(SystemNames(params).size(), 5u);
  params.include_spq = true;
  params.include_hiti = true;
  auto names = SystemNames(params);
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[5], "SPQ");
  EXPECT_EQ(names[6], "HiTi");
}

}  // namespace
}  // namespace airindex::core
