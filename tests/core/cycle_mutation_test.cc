// Every system over cycles that no longer match it. Each segment in turn
// is dropped, duplicated, swapped with the next, cut by one byte or cut to
// half its payload, and CycleBuilder lays the cycle out again, so packet
// headers stay consistent while the system's own directories (NR's and
// EB's indexes, the full-cycle headers) point at the old layout. Every
// query must return, and every answer reported ok must be exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "broadcast/cycle.h"
#include "core/systems.h"
#include "graph/catalog.h"
#include "testing/air_systems.h"
#include "workload/workload.h"

namespace airindex::core {
namespace {

using testing_support::FindSystem;
using testing_support::OkAnswers;
using testing_support::Rebuilt;

/// Most segments mutated per system, spaced evenly over the cycle.
constexpr size_t kMaxSegments = 80;

/// A network's graph, its workload and all seven systems, built once per
/// binary.
struct Fleet {
  graph::Graph g;
  workload::Workload w;
  std::vector<std::unique_ptr<AirSystem>> systems;
};

Fleet MakeFleet(const std::string& network, double scale) {
  Fleet f;
  f.g = graph::MakeNetwork(graph::FindNetwork(network).value(), scale)
            .value();
  f.w = workload::GenerateWorkload(f.g, 6, 5).value();
  SystemParams params;
  params.nr_regions = 16;
  params.eb_regions = 16;
  params.arcflag_regions = 16;
  params.hiti_regions = 16;
  f.systems = BuildSystems(f.g, kAllSystems, params).value();
  return f;
}

const Fleet& FleetOf(const std::string& network) {
  if (network == "Germany") {
    static const Fleet& germany = *new Fleet(MakeFleet("Germany", 0.05));
    return germany;
  }
  static const Fleet& milan = *new Fleet(MakeFleet("Milan", 0.2));
  return milan;
}

enum class Mutation { kDrop, kDuplicate, kSwapNext, kCutByte, kHalve };

const char* NameOf(Mutation m) {
  switch (m) {
    case Mutation::kDrop:
      return "drop";
    case Mutation::kDuplicate:
      return "duplicate";
    case Mutation::kSwapNext:
      return "swap";
    case Mutation::kCutByte:
      return "cut";
    case Mutation::kHalve:
      return "halve";
  }
  return "?";
}

/// `cycle` with segment `si` mutated by `m`, or nullopt where `m` changes
/// nothing or leaves no segment.
std::optional<broadcast::BroadcastCycle> Mutated(
    const broadcast::BroadcastCycle& cycle, size_t si, Mutation m) {
  std::vector<broadcast::Segment> segments;
  for (size_t i = 0; i < cycle.num_segments(); ++i) {
    segments.push_back(cycle.segment(i));
  }
  std::vector<uint8_t>& payload = segments[si].payload;
  switch (m) {
    case Mutation::kDrop:
      if (segments.size() == 1) return std::nullopt;
      segments.erase(segments.begin() + si);
      break;
    case Mutation::kDuplicate:
      segments.insert(segments.begin() + si, segments[si]);
      break;
    case Mutation::kSwapNext:
      if (si + 1 == segments.size()) return std::nullopt;
      std::swap(segments[si], segments[si + 1]);
      break;
    case Mutation::kCutByte:
      if (payload.empty()) return std::nullopt;
      payload.pop_back();
      break;
    case Mutation::kHalve:
      if (payload.size() < 2) return std::nullopt;
      payload.resize(payload.size() / 2);
      break;
  }
  return Rebuilt(std::move(segments));
}

class CycleMutationTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(CycleMutationTest, QueriesReturnAndOkAnswersAreExact) {
  const auto& [network, method] = GetParam();
  const Fleet& f = FleetOf(network);
  const AirSystem* sys = FindSystem(f.systems, method);
  ASSERT_NE(sys, nullptr) << method;
  const broadcast::BroadcastCycle& own = sys->cycle();
  ASSERT_EQ(OkAnswers(*sys, f.g, f.w, own, "own cycle"), f.w.queries.size());

  const size_t n = own.num_segments();
  const size_t step =
      std::max<size_t>(1, (n + kMaxSegments - 1) / kMaxSegments);
  for (size_t si = 0; si < n; si += step) {
    for (Mutation m : {Mutation::kDrop, Mutation::kDuplicate,
                       Mutation::kSwapNext, Mutation::kCutByte,
                       Mutation::kHalve}) {
      const std::optional<broadcast::BroadcastCycle> cycle =
          Mutated(own, si, m);
      if (!cycle.has_value()) continue;
      OkAnswers(*sys, f.g, f.w, *cycle,
                std::string(NameOf(m)) + " segment " + std::to_string(si));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, CycleMutationTest,
    ::testing::Combine(::testing::Values("Germany", "Milan"),
                       ::testing::Values("DJ", "NR", "EB", "LD", "AF", "SPQ",
                                         "HiTi")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace airindex::core
