// The full-cycle clients that model the paper's CSR rebuild (AF, SPQ,
// HiTi; core::CsrRebuild) on cycles rewritten with CycleBuilder: a network
// record the rebuild rejects, and HiTi headers and tables that do not fit
// the system. Every query must return, the rewritten cycles must fail
// every query, and every answer reported ok must be exact. Also LD with a
// header that names fewer nodes than the network.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "broadcast/cycle.h"
#include "common/byte_io.h"
#include "core/systems.h"
#include "graph/catalog.h"
#include "testing/air_systems.h"
#include "workload/workload.h"

namespace airindex::core {
namespace {

using testing_support::Rewritten;

constexpr size_t kQueries = 8;

const graph::Graph& Germany() {
  static const graph::Graph& g = *new graph::Graph(
      graph::MakeNetwork(graph::FindNetwork("Germany").value(), 0.1)
          .value());
  return g;
}

/// The system of `method`, built once per binary with the others it
/// covers.
const AirSystem* System(const std::string& method) {
  static const auto& systems = *new std::vector<std::unique_ptr<AirSystem>>(
      [] {
        SystemParams params;
        params.arcflag_regions = 32;
        params.hiti_regions = 32;
        std::vector<std::unique_ptr<AirSystem>> built;
        for (const char* name : {"AF", "SPQ", "HiTi", "LD"}) {
          built.push_back(BuildSystem(Germany(), name, params).value());
        }
        return built;
      }());
  return testing_support::FindSystem(systems, method);
}

void SetU32(std::vector<uint8_t>& buf, size_t offset, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    buf[offset + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

/// Runs the workload over `cycle` and returns how many queries answered
/// ok; each ok answer must equal Dijkstra's distance.
size_t OkAnswers(const AirSystem& sys, const broadcast::BroadcastCycle& cycle,
                 const std::string& label) {
  static const auto& w = *new workload::Workload(
      workload::GenerateWorkload(Germany(), kQueries, 17).value());
  return testing_support::OkAnswers(sys, Germany(), w, cycle, label);
}

enum class BadArc { kSelfLoop, kHeadPastNodes };

/// Rewrites the head of the first arc in network segment 0. The records
/// are kLegacy: id u32, x and y f64, degree u16, then <to u32, weight u32>
/// per arc.
bool RewriteFirstArc(broadcast::Segment& seg, BadArc bad,
                     uint32_t num_nodes) {
  if (seg.type != broadcast::SegmentType::kNetworkData || seg.id != 0) {
    return true;
  }
  constexpr size_t kRecordHeader = 22;
  for (size_t pos = 0; pos + kRecordHeader <= seg.payload.size();) {
    const uint32_t id = GetU32(seg.payload.data() + pos);
    const uint16_t degree = GetU16(seg.payload.data() + pos + 20);
    if (degree > 0) {
      SetU32(seg.payload, pos + kRecordHeader,
             bad == BadArc::kSelfLoop ? id : num_nodes);
      return true;
    }
    pos += kRecordHeader;
  }
  ADD_FAILURE() << "network segment 0 holds no arc";
  return true;
}

class CsrRebuildRejectionTest
    : public ::testing::TestWithParam<std::tuple<std::string, BadArc>> {};

// graph::Graph's CSR build rejects a self-loop and a head at or past the
// node count; the clients that model that rebuild reject the cycle too.
TEST_P(CsrRebuildRejectionTest, RejectedRecordFailsEveryQuery) {
  const auto& [method, bad] = GetParam();
  const auto sys = System(method);
  ASSERT_NE(sys, nullptr);
  ASSERT_EQ(OkAnswers(*sys, sys->cycle(), "own cycle"), kQueries);
  const auto num_nodes = static_cast<uint32_t>(Germany().num_nodes());
  const broadcast::BroadcastCycle cycle =
      Rewritten(sys->cycle(), [&](broadcast::Segment& seg) {
        return RewriteFirstArc(seg, bad, num_nodes);
      });
  EXPECT_EQ(OkAnswers(*sys, cycle, "rewritten"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    FullCycle, CsrRebuildRejectionTest,
    ::testing::Combine(::testing::Values("AF", "SPQ", "HiTi"),
                       ::testing::Values(BadArc::kSelfLoop,
                                         BadArc::kHeadPastNodes)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == BadArc::kSelfLoop ? "_SelfLoop"
                                                           : "_HeadPastNodes");
    });

bool IsHiTiAux(const broadcast::Segment& seg) {
  return seg.type == broadcast::SegmentType::kAuxData;
}

// HiTi's header carries the region count and the kd splits; each table
// (aux segment h >= 1) a border count nb, nb border ids and two nb x nb
// matrices. Decoded as is, a larger region count indexes past the
// overlay's ancestor table, a smaller one searches a wrong partition, and
// an inflated nb reads past the table.
TEST(HiTiClientTest, ForeignHeaderOrTableFailsEveryQuery) {
  const auto sys = System("HiTi");
  ASSERT_NE(sys, nullptr);
  const broadcast::BroadcastCycle& own = sys->cycle();
  ASSERT_EQ(OkAnswers(*sys, own, "own cycle"), kQueries);

  for (uint16_t regions : {16, 64}) {
    const broadcast::BroadcastCycle cycle =
        Rewritten(own, [&](broadcast::Segment& seg) {
          if (IsHiTiAux(seg) && seg.id == 0) {
            seg.payload[0] = static_cast<uint8_t>(regions);
            seg.payload[1] = static_cast<uint8_t>(regions >> 8);
          }
          return true;
        });
    EXPECT_EQ(OkAnswers(*sys, cycle, "header regions"), 0u) << regions;
  }

  uint32_t table = 0;
  const broadcast::BroadcastCycle inflated =
      Rewritten(own, [&](broadcast::Segment& seg) {
        if (table == 0 && IsHiTiAux(seg) && seg.id > 0) {
          const uint32_t nb = GetU32(seg.payload.data());
          if (nb > 0) {
            SetU32(seg.payload, 0, 2 * nb + 1);
            table = seg.id;
          }
        }
        return true;
      });
  ASSERT_NE(table, 0u);
  EXPECT_EQ(OkAnswers(*sys, inflated, "inflated nb"), 0u);

  // The overlay search is exact only over every table.
  const broadcast::BroadcastCycle missing =
      Rewritten(own, [&](const broadcast::Segment& seg) {
        return !(IsHiTiAux(seg) && seg.id == table);
      });
  EXPECT_EQ(OkAnswers(*sys, missing, "missing table"), 0u);
}

// LD's header names the node count its distance vectors cover. A header
// naming half the network's nodes sizes the client's vectors for half:
// the vectors past them are skipped and their nodes get a bound of 0,
// which is still admissible, so every answer stays exact.
TEST(LandmarkClientTest, HeaderWithFewerNodesKeepsAnswersExact) {
  const auto sys = System("LD");
  ASSERT_NE(sys, nullptr);
  const auto half = static_cast<uint32_t>(Germany().num_nodes() / 2);
  bool rewritten = false;
  const broadcast::BroadcastCycle cycle =
      Rewritten(sys->cycle(), [&](broadcast::Segment& seg) {
        if (seg.type == broadcast::SegmentType::kAuxData && seg.id == 0) {
          EXPECT_EQ(GetU32(seg.payload.data() + 2), Germany().num_nodes());
          SetU32(seg.payload, 2, half);
          rewritten = true;
        }
        return true;
      });
  ASSERT_TRUE(rewritten);
  EXPECT_EQ(OkAnswers(*sys, cycle, "half header"), kQueries);
}

}  // namespace
}  // namespace airindex::core
