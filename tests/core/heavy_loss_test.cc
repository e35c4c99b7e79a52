// Clients under heavy loss. Once the repair budget runs out, the full-cycle
// clients (ReceiveFullCycle) and the region clients of EB and NR (the
// repair sweep) are left with segments that still have holes (zero bytes).
// Decoding those as records used to feed garbage node ids to the partial
// graph and the edge list: a crash (std::bad_alloc out of RunQuery) or an
// exhausted heap instead of a failed query. Every query must return, and
// every answer reported ok must still be exact.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "broadcast/channel.h"
#include "core/query_scratch.h"
#include "core/systems.h"
#include "graph/catalog.h"
#include "testing/air_systems.h"
#include "workload/workload.h"

namespace airindex::core {
namespace {

const graph::Graph& Germany() {
  static const graph::Graph& g = *new graph::Graph(
      graph::MakeNetwork(graph::FindNetwork("Germany").value(), 0.1)
          .value());
  return g;
}

/// The system of `method`, built once per binary with every other method
/// and the CLI's `run` knobs.
const AirSystem* System(const std::string& method) {
  static const auto& systems = *new std::vector<std::unique_ptr<AirSystem>>(
      [] {
        SystemParams params;
        params.nr_regions = 32;
        params.eb_regions = 32;
        params.arcflag_regions = 32;
        params.hiti_regions = 32;
        return BuildSystems(Germany(), kAllSystems, params).value();
      }());
  return testing_support::FindSystem(systems, method);
}

class HeavyLossTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(HeavyLossTest, QueriesReturnAndOkAnswersAreExact) {
  const auto& [method, loss] = GetParam();
  const graph::Graph& g = Germany();
  const AirSystem* sys = System(method);
  ASSERT_NE(sys, nullptr) << method;
  auto w = workload::GenerateWorkload(g, 48, 11);
  ASSERT_TRUE(w.ok());

  for (int repair_cycles : {0, 1, 8}) {
    ClientOptions options;
    options.max_repair_cycles = repair_cycles;
    QueryScratch scratch;
    size_t ok = 0;
    for (size_t i = 0; i < w->queries.size(); ++i) {
      const workload::Query& q = w->queries[i];
      // A loss stream per query, as the batch engine draws them.
      broadcast::BroadcastChannel channel(&sys->cycle(), loss, 1000 + i);
      const device::QueryMetrics m =
          sys->RunQuery(channel, MakeAirQuery(g, q), options, &scratch);
      if (!m.ok) continue;
      ++ok;
      EXPECT_EQ(m.distance, q.true_dist)
          << method << " loss=" << loss << " repair=" << repair_cycles
          << " " << q.source << "->" << q.target;
    }
    // At 30% loss eight repair passes complete the cycle for some queries,
    // so the exactness check above is not vacuous.
    if (repair_cycles == 8 && loss < 0.35) {
      EXPECT_GT(ok, 0u) << method;
    }
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<HeavyLossTest::ParamType>& info) {
  return std::get<0>(info.param) + "_loss" +
         std::to_string(std::lround(std::get<1>(info.param) * 100));
}

INSTANTIATE_TEST_SUITE_P(
    FullCycle, HeavyLossTest,
    ::testing::Combine(::testing::Values("DJ", "LD", "AF", "SPQ", "HiTi"),
                       ::testing::Values(0.3, 0.4)),
    CaseName);

// EB and NR crashed from 10% loss with no repair pass, and up to 40% with
// one.
INSTANTIATE_TEST_SUITE_P(
    Region, HeavyLossTest,
    ::testing::Combine(::testing::Values("EB", "NR"),
                       ::testing::Values(0.1, 0.2, 0.3, 0.4)),
    CaseName);

}  // namespace
}  // namespace airindex::core
