// The schedule planner's node map (sim::NodeGroups) reads each data
// segment in the format the cycle states (BroadcastCycle::encoding and
// data_layout), so it maps every node of a full-cycle record cycle and of
// an EB or NR region cycle alike, under both encodings, with no format
// passed in by the caller.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "broadcast/cycle.h"
#include "broadcast/schedule.h"
#include "core/systems.h"
#include "graph/catalog.h"
#include "sim/schedule_plan.h"

namespace airindex::sim {
namespace {

using broadcast::CycleEncoding;

class NodeGroupsTest
    : public ::testing::TestWithParam<std::tuple<std::string, CycleEncoding>> {
};

TEST_P(NodeGroupsTest, MapsEveryNodeToAGroupCarryingItsRecord) {
  const auto& [method, encoding] = GetParam();
  static const graph::Graph& g = *new graph::Graph(
      graph::MakeNetwork(graph::FindNetwork("Germany").value(), 0.1)
          .value());
  core::SystemParams params;
  params.build.encoding = encoding;
  const auto sys = core::BuildSystem(g, method, params).value();
  const broadcast::BroadcastCycle& cycle = sys->cycle();
  ASSERT_EQ(cycle.encoding(), encoding);

  // The groups holding network data; every node must map to one of them.
  const std::vector<uint32_t> group_of_segment = broadcast::CycleGroups(cycle);
  std::vector<bool> data_group(broadcast::NumGroups(group_of_segment));
  for (size_t si = 0; si < cycle.num_segments(); ++si) {
    if (cycle.segment(si).type == broadcast::SegmentType::kNetworkData) {
      data_group[group_of_segment[si]] = true;
    }
  }
  size_t unmapped = 0;
  for (uint32_t group : NodeGroups(cycle, g.num_nodes())) {
    unmapped += group >= data_group.size() || !data_group[group];
  }
  EXPECT_EQ(unmapped, 0u) << "of " << g.num_nodes() << " nodes";
}

INSTANTIATE_TEST_SUITE_P(
    GermanyTenth, NodeGroupsTest,
    ::testing::Combine(::testing::Values("DJ", "NR", "EB"),
                       ::testing::Values(CycleEncoding::kLegacy,
                                         CycleEncoding::kCompact)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == CycleEncoding::kCompact ? "_compact"
                                                                 : "_legacy");
    });

}  // namespace
}  // namespace airindex::sim
